"""Helpers of the RFN benchmark (``perfbench/run.py``)."""
