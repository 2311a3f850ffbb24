"""Columnar trace storage, re-exported from :mod:`repro.workload.trace`.

There is one request store: :class:`ColumnarTrace` keeps the five trace
fields as parallel numpy arrays and :class:`~repro.workload.trace.Trace`
wraps one.  This module keeps the columnar names importable from here.
"""

from repro.workload.trace import (
    ColumnarTrace,
    read_trace_csv_columnar,
    write_trace_csv_columnar,
)

__all__ = ["ColumnarTrace", "read_trace_csv_columnar", "write_trace_csv_columnar"]
