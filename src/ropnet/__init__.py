"""From-scratch deep learning for drilling rate-of-penetration prediction.

Five architectures (a recurrent baseline, a feedforward mixer, and
three recurrent/mixer hybrids up to a transformer-augmented fusion
model) built on a small reverse-mode autodiff core, with the full
tabular pipeline: imputation, scaling, windowing, AdamW training,
original-unit metrics, checkpoints, and model-agnostic attribution.
Import what you need from the submodules, e.g. ``ropnet.models``.
"""

__version__ = "0.1.0"
