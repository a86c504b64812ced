"""Scenario files: flat dotted-key text configuration.

Lines are ``key = value``; ``#`` starts a comment.  Initial and force fields
are closed-form expressions over x1, x2 (a small whitelisted grammar) or
``@path`` references to SHLAB1 snapshots.  Unknown keys are rejected so typos
fail loudly.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .fields import ScalarField, TorusGrid, VectorField
from .friction import FrictionParams
from .snapshots import read_snapshot
from .solver import Scenario
from .workbench import WorkbenchProblem

_ALLOWED_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "log": np.log,
}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}

_SCHEMA: dict[str, tuple[type, object]] = {
    # key: (type, default); REQUIRED marks mandatory keys
    "grid.nx": (int, "REQUIRED"),
    "grid.ny": (int, "REQUIRED"),
    "physics.a": (float, 0.5),
    "physics.T": (float, "REQUIRED"),
    "physics.cfl": (float, Scenario.cfl),
    "friction.law": (str, "coulomb"),
    "friction.gamma": (str, "0"),
    "friction.gamma2": (float, 0.0),
    "initial.h0": (str, "REQUIRED"),
    "initial.u0x": (str, "0"),
    "initial.u0y": (str, "0"),
    "force.fx": (str, None),
    "force.fy": (str, None),
    "output.times": (int, Scenario.n_output),
    "seed": (int, Scenario.seed),
    "workbench.delta": (float, WorkbenchProblem.delta),
    "workbench.time_nodes": (int, WorkbenchProblem.num_steps),
    "workbench.amplitude_cap": (float, WorkbenchProblem.amplitude_cap),
    "workbench.lambda": (float, None),
    "workbench.osc_n": (int, WorkbenchProblem.osc_n),
}


class _ExprEvaluator(ast.NodeVisitor):
    """Evaluate an arithmetic expression over x1, x2 on sampled coordinates."""

    def __init__(self, env: dict):
        self.env = env

    def visit(self, node):
        method = "visit_" + type(node).__name__
        fn = getattr(self, method, None)
        if fn is None:
            raise ParseError(f"disallowed expression element: {type(node).__name__}")
        return fn(node)

    def visit_Expression(self, node):
        return self.visit(node.body)

    def visit_Constant(self, node):
        if not isinstance(node.value, (int, float)):
            raise ParseError(f"non-numeric constant {node.value!r}")
        # as a float, so that 10**-1 is 0.1 and 2**9999 overflows to inf
        try:
            return float(node.value)
        except OverflowError:  # an integer literal beyond the float range
            return math.inf

    def visit_Name(self, node):
        if node.id in self.env:
            return self.env[node.id]
        if node.id in _ALLOWED_NAMES:
            return _ALLOWED_NAMES[node.id]
        raise ParseError(f"unknown name {node.id!r} in expression")

    def visit_BinOp(self, node):
        ops = {
            ast.Add: np.add,
            ast.Sub: np.subtract,
            ast.Mult: np.multiply,
            ast.Div: np.divide,
            ast.Pow: np.power,
            ast.Mod: np.mod,
        }
        fn = ops.get(type(node.op))
        if fn is None:
            raise ParseError(f"disallowed operator {type(node.op).__name__}")
        return fn(self.visit(node.left), self.visit(node.right))

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.USub):
            return -self.visit(node.operand)
        if isinstance(node.op, ast.UAdd):
            return +self.visit(node.operand)
        raise ParseError(f"disallowed unary operator {type(node.op).__name__}")

    def visit_Call(self, node):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ParseError("only sin/cos/tan/exp/sqrt/abs/tanh/log calls are allowed")
        if node.keywords or len(node.args) != 1:
            raise ParseError(f"{node.func.id} takes exactly one positional argument")
        return _ALLOWED_FUNCS[node.func.id](self.visit(node.args[0]))


def eval_expression(text: str, grid: TorusGrid) -> np.ndarray:
    """Sample a closed-form expression at the cell centers."""
    try:
        tree = ast.parse(text, mode="eval")
        x1, x2 = grid.cell_centers()
        with np.errstate(all="ignore"):  # the field check rejects non-finite samples
            out = _ExprEvaluator({"x1": x1, "x2": x2}).visit(tree)
    except SyntaxError as exc:
        raise ParseError(f"bad expression {text!r}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError(f"expression nests too deeply: {text[:40]!r}...") from None
    return np.asarray(out, dtype=float) + np.zeros(grid.shape)


def _scalar_from_source(text: str, grid: TorusGrid, base: Path, key: str) -> np.ndarray:
    if text.startswith("@"):
        fld = read_snapshot(base / text[1:])
        if not isinstance(fld, ScalarField) or fld.grid != grid:
            raise ValidationError(f"{key}: snapshot must be a scalar field on the scenario grid")
        return fld.values
    return eval_expression(text, grid)


@dataclass
class ScenarioConfig:
    """Parsed key/value map plus the directory for @file references."""

    values: dict
    base_dir: Path

    def friction_params(self, grid: TorusGrid) -> FrictionParams:
        raw = self.values["friction.gamma"]
        sampled = _scalar_from_source(raw, grid, self.base_dir, "friction.gamma")
        constant = sampled.min() == sampled.max()  # np.ptp of infinite samples warns
        gamma = float(sampled.flat[0]) if constant else ScalarField(grid, sampled)
        return FrictionParams(
            gamma=gamma, gamma2=self.values["friction.gamma2"], law=self.values["friction.law"]
        )

    def _physics(self, grid: TorusGrid | None) -> dict:
        """The fields of `Scenario`, sampled on grid (by default the scenario's)."""
        v = self.values
        if grid is None:
            grid = TorusGrid(v["grid.nx"], v["grid.ny"])
        h0 = _scalar_from_source(v["initial.h0"], grid, self.base_dir, "initial.h0")
        u0 = np.stack(
            [
                _scalar_from_source(v["initial.u0x"], grid, self.base_dir, "initial.u0x"),
                _scalar_from_source(v["initial.u0y"], grid, self.base_dir, "initial.u0y"),
            ]
        )
        if (v["force.fx"] is None) != (v["force.fy"] is None):
            raise ValidationError("force.fx and force.fy must be given together")
        force = None
        if v["force.fx"] is not None:
            force = VectorField(
                grid,
                np.stack(
                    [
                        _scalar_from_source(v["force.fx"], grid, self.base_dir, "force.fx"),
                        _scalar_from_source(v["force.fy"], grid, self.base_dir, "force.fy"),
                    ]
                ),
            )
        return dict(
            grid=grid,
            T=v["physics.T"],
            a=v["physics.a"],
            friction=self.friction_params(grid),
            h0=ScalarField(grid, h0),
            u0=VectorField(grid, u0),
            f=force,
            cfl=v["physics.cfl"],
            n_output=v["output.times"],
            seed=v["seed"],
        )

    def to_scenario(self, grid: TorusGrid | None = None) -> Scenario:
        return Scenario(**self._physics(grid))

    def to_workbench_problem(self) -> WorkbenchProblem:
        v = self.values
        return WorkbenchProblem(
            **self._physics(None),
            num_steps=v["workbench.time_nodes"],
            delta=v["workbench.delta"],
            amplitude_cap=v["workbench.amplitude_cap"],
            osc_n=v["workbench.osc_n"],
        )


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    # OSError propagates: an unreadable file is an IO failure, not bad syntax
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        typ, _ = _SCHEMA[key]
        try:
            values[key] = typ(val)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: key {key!r} expects {typ.__name__}") from exc
    for key, (typ, default) in _SCHEMA.items():
        if key in values:
            continue
        if default == "REQUIRED":
            raise ParseError(f"{path}: missing required key {key!r}")
        values[key] = default
    return ScenarioConfig(values=values, base_dir=path.parent)
