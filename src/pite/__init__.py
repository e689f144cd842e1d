"""Trajectory-guided video-language toolkit.

Library surface:
    trees      bracketed constituency trees, lowest-layer NP extraction
    tracks     point-track arrays, RLE masks, k-means++ condensation, matrices
    pipeline   manifest -> annotated JSONL records with temporal text
    toymodel   surrogate alignment model, packed-batch loss and gradient pass
    trainer    staged gradient-descent training and data plumbing
    metrics    temporal grounding and dense captioning scores
    jsonl      JSON-lines reading and the DataError input-error type
    cli        the `pite` command
"""

__version__ = "0.1.0"
