"""Shape measures for white-matter fiber bundles.

A fast voxel-based oracle computes ten shape measures from streamline
geometry; a multimodal Siamese dual-encoder regressor predicts the same
measures from sampled point clouds and scalar tractography descriptors
through a ``pca_k``-component (default five) PCA latent space.
"""

__version__ = "0.1.0"
