import pytest

from oracles import gasket_svg_text
from prefractal.gasket import build_gasket
from prefractal.harmonic import HarmonicTable
from prefractal.svg import gasket_svg, plane_coords

CX = build_gasket(8)
COORDS = {"sg": None, "harmonic": plane_coords(HarmonicTable(CX).embedding_array())}


@pytest.mark.parametrize("geometry", ["sg", "harmonic"])
@pytest.mark.parametrize("level", range(9))
def test_gasket_svg_chunks_join_to_the_oracle_text(geometry, level):
    # the polygons stream in row blocks, placed from the V_level id prefix;
    # joined, they are the whole-document writer's text
    coords = COORDS[geometry]
    chunks = list(gasket_svg(CX, level, coords=coords))
    want = gasket_svg_text(CX, level, None if coords is None else coords.tolist())
    assert "".join(chunks) == want
    if level == 6:
        assert len(chunks) > 1
