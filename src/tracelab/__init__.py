"""tracelab: a desk-scale laboratory for stagewise trace and cost-function
constructions, with exact rational accounting and combinatorial audits."""

__version__ = "0.1.0"
