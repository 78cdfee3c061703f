"""Single-spike temporal coding, delay-response networks, and their training.

The package turns numeric attributes or grayscale images into one spike
delay per input neuron, propagates those delays through dense layers whose
neurons respond with the rectified average of their weighted input delays,
trains the weights with temporal error backpropagation (optionally with a
heuristic loss that updates only the output neurons involved in the current
class), and reads classes back out of the output delays.  A conventional
spike-response-model neuron is included as a behavioural reference, and
spike counts double as an abstract energy measure.

Import names from the submodules, e.g. ``from mtspike.pipeline import
execute_run``.  ``import mtspike`` loads none of them, so the CLI starts
without numpy until a command needs it.
"""

__version__ = "0.1.0"
