"""Shape measures for white-matter fiber bundles.

A fast voxel-based oracle computes ten shape measures from streamline
geometry; a multimodal Siamese dual-encoder regressor predicts the same
measures from sampled point clouds and scalar tractography descriptors
through a five-component PCA latent space.
"""

from .io import (
    Bundle,
    parse_polydata,
    read_native,
    write_native,
    write_polydata,
)
from .shapes import (
    MEASURE_NAMES,
    ShapeMeasures,
    align_orientations,
    compute_measures,
    voxelize,
)
from .synth import BundleSpec, DatasetConfig, generate_bundle, generate_dataset
from .features import TabStandardizer, extract_tabular, fit_standardizer, sample_points
from .pca import PcaModel
from .metrics import EvalReport, evaluate, fisher_z, nmse, paired_t, pearson_r
from .checkpoint import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint
from .train import predict_measures, train

__version__ = "0.1.0"
