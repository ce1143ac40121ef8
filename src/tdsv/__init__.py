"""Text-dependent speaker verification toolkit.

Submodules (imported explicitly; nothing heavy loads at package import):
  features  WAV reading, log spectrograms
  nn        numpy layer library with hand-written backward passes
  resnet    residual CNN speaker embedder
  train     Adam training loop with per-epoch checkpoints
  backend   WCCN / cosine / s-norm scoring, fusion, PCA export
  metrics   DET curves, EER, minDCF
  trials    tab-separated data tables (corpora, trials, scores, embeddings)
  synth     deterministic synthetic speech corpus generator
  config    versioned key-value pipeline configuration
  cli       command-line entry point
"""

__version__ = "0.1.0"
