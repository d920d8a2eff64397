"""SVG scatter export: degenerate inputs, marker placement, and the
structural XML contract."""
from __future__ import annotations

import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

import mdda
from mdda.errors import ConfigError, ShapeError
from mdda.rng import stream
from mdda.scatter import export_scatter


def test_empty_mapping_still_draws_the_frame(tmp_path):
    path = tmp_path / "empty.svg"
    export_scatter({}, path)
    text = path.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "no data" in text
    # background and plot frame only; no data markers
    assert text.count("<rect") == 2
    assert "<polygon" not in text


def test_single_origin_point_lands_at_the_plot_center(tmp_path):
    path = tmp_path / "origin.svg"
    export_scatter({"solo": (np.array([[0.0, 0.0]]), np.array([0]))}, path)
    text = path.read_text()
    assert '<circle cx="330.00" cy="220.00"' in text


def test_multi_domain_plot_is_well_formed_xml(tmp_path):
    rng = stream(1, "scatter")
    domains = {
        "a": (rng.uniforms(20, -2.0, 2.0).reshape((10, 2)), rng.integers(10, below=3)),
        "b": (rng.uniforms(16, -1.0, 3.0).reshape((8, 2)), rng.integers(8, below=3)),
    }
    path = tmp_path / "multi.svg"
    export_scatter(domains, path)
    root = ET.fromstring(path.read_text())
    assert root.tag.endswith("svg")
    ns = root.tag[: -len("svg")]
    # first domain drawn as circles: 10 points + its legend marker + 3 class dots
    assert len(root.findall(f"{ns}circle")) == 14
    # second domain drawn as squares on top of the two frame rects
    assert len(root.findall(f"{ns}rect")) == 2 + 8 + 1
    text = path.read_text()
    assert ">a</text>" in text and ">b</text>" in text


def test_scatter_input_validation(tmp_path):
    with pytest.raises(ShapeError, match="n x 2"):
        export_scatter({"bad": (np.zeros((3, 3)), np.zeros(3, dtype=np.int64))},
                       tmp_path / "x.svg")
    with pytest.raises(ConfigError, match="counts"):
        export_scatter({"bad": (np.zeros((3, 2)), np.zeros(2, dtype=np.int64))},
                       tmp_path / "x.svg")


def test_domain_names_are_escaped_as_xml_text(tmp_path):
    name = "a&b <c> &amp;"
    path = tmp_path / "names.svg"
    export_scatter({name: (np.array([[0.0, 1.0]]), np.array([0]))}, path)
    assert f">{escape(name)}</text>" in path.read_text()
    assert name in [t.text for t in ET.fromstring(path.read_text()).findall(".//{*}text")]


def test_importing_the_package_loads_no_xml_or_web_module():
    # numpy itself imports urllib.parse, so urllib is judged by urllib.request
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mdda.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, mdda; print(*sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    web = {"xml", "http", "email", "ssl", "urllib.request"}
    assert [name for name in loaded if name in web or name.split(".")[0] in web] == []
