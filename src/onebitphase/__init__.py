"""Phase retrieval from one-bit comparisons of paired intensity measurements."""

__version__ = "0.1.0"
