import pytest

from braidcensus import render
from braidcensus.coords import parse_coords, validate
from braidcensus.render import MAX_CANVAS, RenderError, render_svg, write_svg


def test_deterministic_output():
    c = parse_coords("(0,0,2,3,1,0,0)")
    assert render_svg(c) == render_svg(c)


def test_document_shape():
    c = validate(3, (0, 0, 2, 3, 1, 0, 0))
    text = render_svg(c)
    assert text.startswith("<?xml")
    assert 'version="1.1"' in text
    assert text.rstrip().endswith("</svg>")
    # two interior reference lines for three strands
    assert text.count("<line ") == 2
    # one hollow dot per zone plus the two filled endpoint markers
    assert text.count("<circle ") == 3 + 2


def test_all_zero_three_strands():
    text = render_svg(validate(3, (0,) * 7))
    assert text.count("<line ") == 2
    assert text.count("<polyline ") == 3  # one through arc per zone


def test_arc_counts_match_graph():
    from braidcensus.diagram import build_arc_graph

    c = validate(3, (0, 0, 2, 3, 1, 0, 0))
    g = build_arc_graph(c)
    text = render_svg(c)
    boxes = sum(1 for a in g.arcs if a.kind.endswith("box"))
    assert text.count("<path ") == boxes
    assert text.count("<polyline ") == len(g.arcs) - boxes


def test_closed_variant_adds_arcs():
    c = validate(2, (0, 0, 1, 1, 0))
    open_text = render_svg(c)
    closed_text = render_svg(c, closed=True)
    assert closed_text != open_text
    assert closed_text.count("<polyline ") == open_text.count("<polyline ") + 2


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_canvas_overflow_reported(monkeypatch, closed):
    def no_arcs(*args, **kwargs):
        raise AssertionError("arcs were built")

    # the canvas is judged from n and s alone, before any arc is built
    monkeypatch.setattr(render, "build_arc_graph", no_arcs)
    for c in (validate(2, (0, 0, 600, 1, 0)), validate(2, (0, 0, 200000, 0, 0))):
        with pytest.raises(RenderError) as err:
            render_svg(c, closed=closed)
        assert str(int(MAX_CANVAS)) in str(err.value)


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_canvas_limit_boundary(closed):
    # height 2*40 + 16*(2s + 2 + closed) and width 2*40 + 72n stay within
    # 16000 up to s = 496 and n = 221; one more is refused
    render_svg(validate(2, (0, 0, 496, 0, 0)), closed=closed)
    render_svg(validate(221, (0,) * 443), closed=closed)
    for c in (validate(2, (0, 0, 497, 0, 0)), validate(222, (0,) * 445)):
        with pytest.raises(RenderError):
            render_svg(c, closed=closed)


def test_write_svg(tmp_path):
    path = tmp_path / "d.svg"
    c = parse_coords("(0,0,1,1,0)")
    size = write_svg(c, str(path))
    data = path.read_bytes()
    assert len(data) == size
    assert data.startswith(b"<?xml")
