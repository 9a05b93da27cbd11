"""SVG convergence plots: structure, log-axis filtering, file output."""
import math

from fedlab.svgplot import render_line_plot, write_svg


def _demo_series():
    xs = list(range(6))
    return [
        ("steep", xs, [10.0 ** (-k) for k in xs]),
        ("flat", xs, [0.5] * 6),
    ]


def test_render_produces_one_polyline_per_series():
    svg = render_line_plot(
        _demo_series(), title="gap vs rounds", x_label="rounds", y_label="gap"
    )
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    for label in ("steep", "flat", "gap vs rounds", "rounds", "gap"):
        assert label in svg


def test_log_axis_drops_nonpositive_points():
    xs = [0, 1, 2, 3]
    svg = render_line_plot([("mixed", xs, [1.0, 0.0, -2.0, 0.25])])
    polyline = svg.split("<polyline")[1]
    points = polyline.split('points="')[1].split('"')[0]
    assert len(points.split()) == 2  # only the two positive values survive

    empty = render_line_plot([("gone", xs, [0.0, -1.0, 0.0, 0.0])])
    assert "no positive data" in empty
    assert "<polyline" not in empty


def test_log_axis_drops_nonfinite_points():
    # a diverging run can record an infinite gradient norm
    xs = [0, 1, 2, 3, 4]
    ys = [1.0, math.inf, 0.5, math.nan, 0.25]
    kept = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
    labels = {"title": "t", "x_label": "rounds", "y_label": "grad_norm_sq"}
    assert render_line_plot([("div", xs, ys)], **labels) == render_line_plot(
        [("div", [x for x, _ in kept], [y for _, y in kept])], **labels
    )


def test_labels_are_escaped():
    svg = render_line_plot([("a<b&c", [0, 1], [1.0, 2.0])])
    assert "a&lt;b&amp;c" in svg
    assert "a<b&c" not in svg


def test_constant_series_still_renders():
    svg = render_line_plot([("const", [0, 1, 2], [3.0, 3.0, 3.0])])
    assert svg.count("<polyline") == 1


def test_write_svg(tmp_path):
    path = tmp_path / "plot.svg"
    write_svg(path, render_line_plot(_demo_series()))
    text = path.read_text()
    assert text.startswith("<svg ") and "</svg>" in text
