"""Cuffless blood pressure estimation from simultaneous ECG and PPG waveforms.

The package covers the full chain: record ingestion (WFDB-style binary and
CSV), adaptive tunable-Q wavelet preprocessing, non-uniform two-cycle
segmentation into 513-dimensional waveform feature vectors, a hierarchical
dense + recurrent sequence regressor trained from scratch, and clinical-grade
evaluation (AAMI / BHS / Bland-Altman / correlation statistics).
"""

from bpnet.tqwt import TqwtParams, SubbandSet, FrequencyTable, decompose, reconstruct
from bpnet.recordio import PatientRecord, read_csv_record, read_wfdb_record, select_channels
from bpnet.segmentation import Sequences, DatasetSplit
from bpnet.model import ModelParams, AdamState, TrainedModel, TargetPair

__all__ = [
    "TqwtParams",
    "SubbandSet",
    "FrequencyTable",
    "decompose",
    "reconstruct",
    "PatientRecord",
    "read_csv_record",
    "read_wfdb_record",
    "select_channels",
    "TargetPair",
    "Sequences",
    "DatasetSplit",
    "ModelParams",
    "AdamState",
    "TrainedModel",
]

__version__ = "0.1.0"
