"""evrep: event-camera streams to detector-ready tensors, plus the metrics
to compare representations: augmentation, motion-level stratification, and
COCO-style mAP with timestamp-tolerance matching."""

__version__ = "0.1.0"
