"""Single-spike temporal coding, delay-response networks, and their training.

The package turns numeric attributes or grayscale images into one spike
delay per input neuron, propagates those delays through dense layers whose
neurons respond with the rectified average of their weighted input delays,
trains the weights with temporal error backpropagation (optionally with a
heuristic loss that updates only the output neurons involved in the current
class), and reads classes back out of the output delays.  A conventional
spike-response-model neuron is included as a behavioural reference, and
spike counts double as an abstract energy measure.

Submodules import lazily so the CLI can cap numeric thread pools before
numpy loads; ``import mtspike`` alone pulls in nothing heavy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "MTSpikeError": ".errors",
    "ConfigError": ".errors",
    "DataError": ".errors",
    "StructureError": ".errors",
    "ModelIOError": ".errors",
    "DivergenceError": ".errors",
    "EvaluationError": ".errors",
    # coding
    "CodingParams": ".coding",
    "DelayVector": ".coding",
    "encode_numeric": ".coding",
    "encode_pixels_1to1": ".coding",
    "encode_conv_like": ".coding",
    "neuron_count": ".coding",
    # network
    "Network": ".network",
    "ForwardTrace": ".network",
    "init_network": ".network",
    "forward_batch": ".network",
    # readout
    "TargetScheme": ".readout",
    "target_matrix": ".readout",
    "read_class_batch": ".readout",
    "pre_window_count": ".readout",
    # learning
    "GRADIENT_MODES": ".learning",
    "UPDATE_GATES": ".learning",
    "BATCH_REDUCTIONS": ".learning",
    "TrainConfig": ".learning",
    "EpochStats": ".learning",
    "output_residual": ".learning",
    "backward": ".learning",
    "batch_indices": ".learning",
    "train": ".learning",
    # srm
    "SrmParams": ".srm",
    "psp_kernel": ".srm",
    "kernel_peak_time": ".srm",
    "voltage_trace": ".srm",
    "threshold_crossing": ".srm",
    # datasets
    "RawDataset": ".datasets",
    "EncodedDataset": ".datasets",
    "EncodingSpec": ".datasets",
    "load_iris": ".datasets",
    "load_mnist_idx": ".datasets",
    "save_mnist_idx": ".datasets",
    "attribute_ranges": ".datasets",
    "split_dataset": ".datasets",
    "stratified_subset": ".datasets",
    "encode_dataset": ".datasets",
    # metrics
    "RunMetrics": ".metrics",
    "evaluate": ".metrics",
    "dataset_spike_count": ".metrics",
    "energy": ".metrics",
    "summarize": ".metrics",
    "write_metrics_csv": ".metrics",
    "write_confusion_csv": ".metrics",
    # model files
    "ModelFile": ".model_io",
    "save_model": ".model_io",
    "load_model": ".model_io",
    # configs and the pipeline
    "RunConfig": ".config",
    "DatasetConfig": ".config",
    "load_config": ".config",
    "config_from_dict": ".config",
    "preset": ".config",
    "preset_names": ".config",
    "RunResult": ".pipeline",
    "fit_coding": ".pipeline",
    "prepare_data": ".pipeline",
    "execute_run": ".pipeline",
    # cli
    "main": ".cli",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
