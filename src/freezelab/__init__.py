"""freezelab: desk-scale detector training with scheduled backbone freezing.

The package trains a tiny conv detector on synthetic scenes while a
freezing schedule decides, epoch by epoch, whether gradient may flow into
the backbone. An exact FLOP ledger and a minutes estimator price each
schedule, and mAP@50 scores what the schedule cost in accuracy.
"""
