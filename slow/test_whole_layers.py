"""Every layer of AlexNet, ResNet and VGG, whole, bit-exact in all three styles.

The same check as Tier-1's ``test_every_layer_whole`` (``tests/test_arch.py``), on
the three bundled nets too big for Tier-1's time budget.  This directory lies outside
pytest's ``testpaths``, so Tier-1 does not collect it; CI runs it as a job of its own:

    python -m pytest -q slow

VGG's largest layer, ``conv1_2``, is 64 x 576 x 50,176.  ``execute_cycle`` blocks over
the x operands as well as the w operands, so one call holds the planes of one block
per side, not the 0.46 GB of every float64 x plane.  The layer's cluster scalars and the
int64 reference still take most of the job's peak RSS.
"""

import pytest
from test_arch import check_layer_whole, every_layer_of


@pytest.mark.parametrize("name,index", every_layer_of("alexnet", "resnet", "vgg"))
def test_every_layer_whole(name, index):
    check_layer_whole(name, index)
