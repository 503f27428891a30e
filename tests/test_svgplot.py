import xml.etree.ElementTree as ET

from ergokit._svgplot import line_chart_svg
from ergokit.cli import main

SVG = "{http://www.w3.org/2000/svg}"


def texts(svg: str) -> list:
    return [t.text for t in ET.fromstring(svg).iter(f"{SVG}text")]


def test_text_nodes_are_escaped():
    svg = line_chart_svg([("a&b", [(0.0, 1.0), (1.0, 2.0)])], title="x<y", xlabel="p>q",
                         ylabel="&")
    assert "a&amp;b" in svg and "x&lt;y" in svg and "p&gt;q" in svg
    names = texts(svg)
    assert names[0] == "x<y"
    assert {"a&b", "p>q", "&"} <= set(names)


def test_simulate_chart_of_a_model_named_with_markup_parses(tmp_path, monkeypatch):
    from ergokit import cli
    from ergokit.ifs_jump import example_halving

    monkeypatch.setitem(cli._MODELS, "a&b<c", (example_halving, ()))
    chart = tmp_path / "t.svg"
    assert main(["simulate", "--model", "a&b<c", "--x0", "5", "--horizon", "10",
                 "--out", str(tmp_path / "t.csv"), "--plot", str(chart)]) == 0
    assert texts(chart.read_text())[0] == "a&b<c trajectories"


def test_no_data_chart():
    svg = line_chart_svg([("empty", [])], title="nothing")
    assert texts(svg) == ["nothing", "no data"]
    assert svg.endswith("no data</text></svg>\n")


def test_one_point_series_is_a_circle_in_the_middle():
    # flat x and y ranges are widened by 1/2 on each side, so the point
    # sits at the centre of the plot area (70..700 by 405..40)
    svg = line_chart_svg([("one", [(3.0, -2.0)])])
    assert '<circle cx="385.00" cy="222.50" r="3" fill="#1f77b4"/>' in svg
    labels = texts(svg)
    assert labels[:2] == ["2.5", "-2.5"] and labels[-3:-1] == ["3.5", "-1.5"]
    assert labels[-1] == "one"

