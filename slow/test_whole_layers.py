"""Every layer of AlexNet and ResNet, whole, bit-exact in all three styles.

The same check as Tier-1's ``test_every_layer_whole`` (``tests/test_arch.py``), on
the two bundled nets too big for Tier-1's time budget.  This directory lies outside
pytest's ``testpaths``, so Tier-1 does not collect it; CI runs it as a job of its own:

    python -m pytest -q slow

VGG is not here: the float64 x planes of its ``conv1_2`` (50,176 columns x 576 x 2
planes) take 0.46 GB in one call, so it first needs blocking over the x operands.
Tier-1 checks one full-depth row and column of every VGG layer
(``test_every_bundled_layer_at_full_depth``).
"""

import pytest
from test_arch import check_layer_whole, every_layer_of


@pytest.mark.parametrize("name,index", every_layer_of("alexnet", "resnet"))
def test_every_layer_whole(name, index):
    check_layer_whole(name, index)
