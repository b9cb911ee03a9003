"""Every layer of AlexNet, ResNet and VGG, whole, bit-exact in all three styles.

The same check as Tier-1's ``test_every_layer_whole`` (``tests/test_arch.py``), on
the three bundled nets too big for Tier-1's time budget.  This directory lies outside
pytest's ``testpaths``, so Tier-1 does not collect it; CI runs it as a job of its own:

    python -m pytest -q slow

VGG's ``conv1_2`` is 64 x 576 x 50,176.  ``execute_cycle`` blocks over
the x operands as well as the w operands, so one call holds the planes of one block
per side, and returns the layer's 12.8 M cluster scalars as one 103 MB int64 array; the
reference is a float64 ``W @ X`` through BLAS.  The job's peak RSS is now set by ``fc6``
(4096 x 25,088 x 1): its weight vectors hold 822 MB of int64, beside their int16 source.
"""

import pytest
from test_arch import check_layer_whole, every_layer_of


@pytest.mark.parametrize("name,index", every_layer_of("alexnet", "resnet", "vgg"))
def test_every_layer_whole(name, index):
    check_layer_whole(name, index)
