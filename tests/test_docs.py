"""The README's experiment table must mirror the authoritative constants."""

import os

from pencbo.harness import SPEC_DEFAULTS
from pencbo.repro import FIGURE_PARAMETERS

COLUMNS = ("problem", "n_particles", "n_iterations", "lam", "sigma", "dt",
           "beta0", "theta0", "eta_beta", "eta_theta", "check", "diffusion")
HEADER = ("figure", "problem", "N", "K", "lam", "sigma", "dt",
          "beta0", "theta0", "eta_beta", "eta_theta", "check", "diffusion")


def read_readme_table() -> dict:
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        lines = [line.strip() for line in fh]
    header_line = "| " + " | ".join(HEADER) + " |"
    start = lines.index(header_line)
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert len(cells) == len(HEADER), f"malformed row: {line}"
        rows[cells[0]] = dict(zip(HEADER[1:], cells[1:]))
    return rows


def test_readme_table_matches_reproduction_constants():
    table = read_readme_table()
    assert set(table) == set(FIGURE_PARAMETERS)
    for figure, row in FIGURE_PARAMETERS.items():
        # a row without a field runs with its spec default, as _config builds it
        row = {**SPEC_DEFAULTS, **row}
        cells = table[figure]
        for header, key in zip(HEADER[1:], COLUMNS):
            value = row[key]
            cell = cells[header]
            if isinstance(value, (int, float)):
                assert float(cell) == float(value), (figure, key, cell, value)
            else:
                assert cell == str(value), (figure, key, cell, value)
