"""The layer table of scripts/ab_layers.py, built on this checkout: no
layer is timed, but each runs once, untimed, for its counts."""

import importlib.util
from pathlib import Path

from formalflow import algebra, chain

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_layers.py"

LAYERS = {
    "contract_hot",
    "compose_o6d3",
    "horner_products_o6d3",
    "euler_loop_o6d3",
    "euler_step_o6d3",
    "euler_loop_o3d2",
    "euler_step_o1d1_p64",
    "batch_terminal_o1d1_p64",
    "batch_terminal_o4d3_p64",
    "variation_of_constants_o3d2",
    "fundamental_o3d2",
    "formula_check_o3d2",
    "json_floats_o6d3",
    "report_write_o6d3",
    "cli_solve_o6d3",
}
# the layers that build no `_Runner` or `_Steps` schedule
NOT_COMPOSING = {"contract_hot", "horner_products_o6d3", "fundamental_o3d2", "json_floats_o6d3", "report_write_o6d3"}


def load_script():
    spec = importlib.util.spec_from_file_location("ab_layers", SCRIPT)
    ab_layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_layers)
    return ab_layers


def test_the_table_holds_every_layer_with_its_sizes_and_counts(tmp_path):
    table = load_script().layers("formalflow", tmp_path)
    assert set(table) == LAYERS
    for name, layer in table.items():
        assert isinstance(layer.sizes, str) and layer.sizes
        assert layer.number >= 1 and layer.divisor >= 1
        assert (layer.counts is None) == (name in NOT_COMPOSING), name
    # the wrapped classes are restored after each capture
    assert algebra._Runner is chain._Runner and isinstance(chain._Steps, type)
    counts = {name: layer.counts for name, layer in table.items()}
    assert counts["compose_o6d3"] == {"products": 56, "additions": 35, "flops": 401031, "block_steps": []}
    # the loop and the per-step layer run the same solve; the CLI solve runs it too
    assert counts["euler_loop_o6d3"] == counts["euler_step_o6d3"] == counts["cli_solve_o6d3"]
    assert counts["batch_terminal_o1d1_p64"]["block_steps"] == [512, 256, 128, 64, 32, 16]
    # 64 paths at order 4, d 3: chunks of 62 and 2 paths, one schedule each
    assert counts["batch_terminal_o4d3_p64"]["block_steps"] == [1, 31]
    assert counts["formula_check_o3d2"]["products"] > counts["euler_loop_o3d2"]["products"]


def test_quartiles_are_null_under_two_rounds():
    quartiles = load_script().quartiles
    assert quartiles([]) is None and quartiles([0.5]) is None
    assert quartiles([1.0, 3.0]) == [0.5, 3.5]
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == [1.5, 4.5]
