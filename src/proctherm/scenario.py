"""Declarative scenario files: parsing, validation, model assembly.

Scenarios are YAML documents with explicit complex literals (``"a+bi"``)
and row-major matrices, so they diff cleanly and double as a test corpus.
Validation errors carry the field path of the offending node.

The loader resolves two plain-scalar forms ahead of PyYAML's YAML 1.1
implicit resolvers, with the tag those resolvers would give: a scalar
ending in ``i`` is a string (no YAML 1.1 form ends in ``i``), and one that
fully matches ``[-+]?[0-9]+\\.[0-9]*(?:[eE][-+][0-9]+)?`` is a float.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import re
from dataclasses import dataclass
from itertools import takewhile
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from .algebra import gibbs_mat, is_hermitian, validate_density
from .channels import CPMap, Instrument
from .protocol import Protocol, Segment, before, same_instant
from .simulate import AutonomousModel
from .tolerances import DEFAULT

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "parse_scenario_dict",
           "build_model"]

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_LITERAL = r"[0-9eE.+\-ij]+"
_COMPLEX_CHARS = re.compile(_LITERAL)
# the string cells of a matrix, joined by commas
_COMPLEX_CELLS = re.compile(rf"{_LITERAL}(?:,{_LITERAL})*")
_CELL_TYPES = {str, float, int}


class ScenarioError(ValueError):
    """Validation failure with the field path of the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _parse_complex(value: Any, path: str) -> complex:
    if isinstance(value, bool):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        # an int out of float range is refused as a non-finite number
        return complex(_number(value, path))
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a number or 'a+bi' string, got {type(value).__name__}")
    text = value.strip().replace(" ", "")
    if not text or not _COMPLEX_CHARS.fullmatch(text):
        raise ScenarioError(path, f"malformed complex literal {value!r}")
    try:
        z = complex(text.replace("i", "j"))
    except ValueError:
        raise ScenarioError(path, f"malformed complex literal {value!r}") from None
    if not cmath.isfinite(z):
        raise ScenarioError(path, f"expected a finite number, got {value!r}")
    return z


def _mapping(node: Any, path: str, keys: set[str] | None = None) -> Mapping:
    """``node``, checked to be a mapping with no key outside ``keys`` (when
    given), so that a misspelled key is an error rather than ignored."""
    if not isinstance(node, Mapping):
        raise ScenarioError(path, f"expected a mapping, got {type(node).__name__}")
    unknown = set() if keys is None else set(node) - keys
    if unknown:
        raise ScenarioError(path, f"unknown key(s) {sorted(unknown, key=str)}")
    return node


def _sequence(node: Any, path: str) -> Sequence:
    """``node``, checked to be a list; an absent node (None) is an empty one."""
    if node is None:
        return []
    if isinstance(node, str) or not isinstance(node, Sequence):
        raise ScenarioError(path, f"expected a list, got {type(node).__name__}")
    return node


def _number(node: Any, path: str, kind: type = float):
    """``node`` as a ``kind`` (float or int).  A string is read as well,
    since YAML takes ``1e-3`` for one; a bool, a NaN or infinite float, and
    a float with a fractional part where an int is expected, are errors."""
    if isinstance(node, (int, float, str)) and not isinstance(node, bool):
        try:
            value = kind(node)
            if math.isfinite(value) and (kind is float or not isinstance(node, float) or value == node):
                return value
        except (ValueError, OverflowError):
            pass
    what = "an integer" if kind is int else "a finite number"
    raise ScenarioError(path, f"expected {what}, got {node!r}")


def _pauli_string(ops: str, path: str) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for ch in ops:
        if ch not in _PAULI:
            raise ScenarioError(path, f"unknown Pauli letter {ch!r} in {ops!r}")
        out = np.kron(out, _PAULI[ch])
    return out


def _is_row(node: Any) -> bool:
    return isinstance(node, Sequence) and not isinstance(node, str)


def _read_cells(node: Sequence) -> np.ndarray | None:
    """The square nested-list matrix ``node``, its cells read in one pass,
    or None where some row or cell needs ``_parse_complex``'s reading: a
    string with whitespace or a comma, a bool, None, an int out of float
    range, a non-finite value, a malformed literal, or rows that do not make
    a square."""
    n = len(node)
    if not n or not all(_is_row(row) and len(row) == n for row in node):
        return None
    cells = [v for row in node for v in row]
    if not all(type(v) in _CELL_TYPES for v in cells):
        return None
    texts = [v for v in cells if type(v) is str]
    try:
        if texts:
            joined = ",".join(texts)
            parts = joined.replace("i", "j").split(",")
            if len(parts) != len(texts) or not _COMPLEX_CELLS.fullmatch(joined):
                return None
            read = map(complex, parts)
            cells = [next(read) if type(v) is str else v for v in cells]
        mat = np.array(cells, dtype=complex).reshape(n, n)
    except (ValueError, OverflowError):
        return None
    return mat if np.isfinite(mat).all() else None


def _parse_matrix(node: Any, path: str, names: Mapping[str, np.ndarray],
                  dim: int | None = None) -> np.ndarray:
    if isinstance(node, str):
        if node not in names:
            raise ScenarioError(path, f"unknown matrix name {node!r}")
        mat = names[node]
    elif isinstance(node, Mapping):
        keys = set(node)
        if "pauli" in keys:
            mat = _pauli_string(str(node["pauli"]), path)
            mat = _parse_complex(node.get("coeff", 1.0), path + ".coeff") * mat
        elif "diag" in keys:
            entries = [_parse_complex(v, f"{path}.diag[{i}]")
                       for i, v in enumerate(_sequence(node["diag"], path + ".diag"))]
            mat = np.diag(np.array(entries, dtype=complex))
        elif "number" in keys:
            spec = _mapping(node["number"], path + ".number")
            d = _number(spec.get("dim", 0), path + ".number.dim", int)
            if d < 1:
                raise ScenarioError(path + ".number.dim", "needs a positive dim")
            w = _number(spec.get("spacing", 1.0), path + ".number.spacing")
            off = _number(spec.get("offset", 0.0), path + ".number.offset")
            # the levels run monotonically from the offset to the top one
            top = off + w * (d - 1)
            if not math.isfinite(top):
                raise ScenarioError(path + ".number", "expected finite levels, got "
                                    f"offset + {d - 1} * spacing = {top!r}")
            mat = np.diag(off + w * np.arange(d)).astype(complex)
        elif "zeros" in keys:
            d = _number(node["zeros"], path + ".zeros", int)
            if d < 1:
                raise ScenarioError(path + ".zeros", "needs a positive dim")
            mat = np.zeros((d, d), dtype=complex)
        else:
            raise ScenarioError(path, f"unknown matrix spec with keys {sorted(keys)}")
    elif isinstance(node, Sequence):
        mat = _read_cells(node)
        if mat is None:
            rows = []
            for i, row in enumerate(node):
                if not _is_row(row):
                    raise ScenarioError(f"{path}[{i}]", "matrix rows must be lists")
                rows.append([_parse_complex(v, f"{path}[{i}][{j}]")
                             for j, v in enumerate(row)])
            widths = {len(r) for r in rows}
            if len(widths) != 1 or len(rows) not in widths:
                raise ScenarioError(path, "matrix must be square")
            mat = np.array(rows, dtype=complex)
    else:
        raise ScenarioError(path, f"cannot read a matrix from {type(node).__name__}")
    if dim is not None and mat.shape != (dim, dim):
        raise ScenarioError(path, f"expected a {dim}x{dim} matrix, got {mat.shape}")
    return mat


def _parse_hermitian(node, path, names, dim=None) -> np.ndarray:
    mat = _parse_matrix(node, path, names, dim)
    if not is_hermitian(mat):
        raise ScenarioError(path, "matrix must be Hermitian")
    return mat


def _parse_state(node: Any, path: str, dim: int, beta: float,
                 hamiltonian: np.ndarray | None,
                 names: Mapping[str, np.ndarray]) -> np.ndarray:
    if isinstance(node, Mapping):
        if node.get("gibbs"):
            h = np.zeros((dim, dim)) if hamiltonian is None else hamiltonian
            return gibbs_mat(h, beta)
        if node.get("maximally_mixed"):
            return np.eye(dim, dtype=complex) / dim
        if "pure" in node:
            vec = np.array([_parse_complex(v, f"{path}.pure[{i}]")
                            for i, v in enumerate(_sequence(node["pure"], path + ".pure"))],
                           dtype=complex)
            if vec.shape != (dim,):
                raise ScenarioError(path + ".pure", f"expected {dim} amplitudes")
            norm = np.linalg.norm(vec)
            if norm < 1e-12:
                raise ScenarioError(path + ".pure", "zero vector")
            vec = vec / norm
            return np.outer(vec, vec.conj())
        if "matrix" in node:
            rho = _parse_matrix(node["matrix"], path + ".matrix", names, dim)
            return _check_density(rho, path + ".matrix")
    raise ScenarioError(path, "state must be one of {gibbs| pure| maximally_mixed| matrix}")


def _checked(path: str, build, *args, context: str = "", **kwargs):
    """``build(*args, **kwargs)``, with its ValueError raised as an input
    error at ``path``, its message led by ``context``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(path, f"{context}{exc}") from None


def _check_density(rho: np.ndarray, path: str) -> np.ndarray:
    return _checked(path, validate_density, rho, context="invalid density matrix: ")


# ---------------------------------------------------------------------------
# scenario object
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    """A validated scenario: ``spec`` is the keyword mapping
    :meth:`AutonomousModel.assemble` takes, so a model is
    ``AutonomousModel.assemble(**spec)``."""

    spec: dict
    report_times: list[float]
    options: dict
    checksum: str = ""

    @property
    def name(self) -> str:
        return self.spec["name"]


_TOP_KEYS = {"name", "beta", "mean_force", "system", "bath", "coupling",
             "matrices", "protocol", "system_hamiltonian", "time", "steps",
             "feedback", "initial", "report_times", "options"}
_STEP_KEYS = {"time", "instrument", "collision", "ancilla_hamiltonian", "window"}
_COLLISION_KEYS = {"ancilla", "unitary", "projectors", "labels"}
_ANCILLA_KEYS = {"dim", "state", "hamiltonian"}
_OPTION_KEYS = {"prune_threshold"}


def _label(node: Any, path: str) -> str:
    """An outcome label.  It is a field of ``branches.csv`` and a part of a
    ``|``-joined record string, so a comma, bar, double quote or line break
    in it would break the bundle or make two records spell alike, and so
    would an empty label, whose one-label record spells ``-``."""
    label = str(node)
    if not label:
        raise ScenarioError(path, "outcome label is empty; its record would spell '-'")
    bad = [c for c in ',|"\r\n' if c in label]
    if bad:
        raise ScenarioError(path, f"outcome label {label!r} contains {bad[0]!r}; "
                                  "labels may not contain ',', '|', '\"' or a line break")
    return label


def _parse_instrument(node, path, names, s_dim) -> Instrument:
    if not isinstance(node, Mapping) or "outcomes" not in node:
        raise ScenarioError(path, "instrument needs an 'outcomes' list")
    outcomes = []
    for i, oc in enumerate(_sequence(node["outcomes"], path + ".outcomes")):
        opath = f"{path}.outcomes[{i}]"
        oc = _mapping(oc, opath)
        label = _label(oc.get("label", i + 1), opath + ".label")
        kraus_nodes = _sequence(oc.get("kraus"), opath + ".kraus")
        if not kraus_nodes:
            raise ScenarioError(opath, "outcome needs a nonempty 'kraus' list")
        kraus = [_parse_matrix(kn, f"{opath}.kraus[{j}]", names, s_dim)
                 for j, kn in enumerate(kraus_nodes)]
        outcomes.append((label, CPMap(("S",), kraus)))
    # the instrument's own message names the completeness residual
    return _checked(path, Instrument, outcomes, context="invalid instrument: ")


def _parse_timeline(node, path, names, s_dim, t_start, t_end) -> tuple[Segment, ...]:
    """The segments at ``path``, checked to be one gapless timeline over
    [t_start, t_end]."""
    segs = []
    for i, sn in enumerate(_sequence(node, path)):
        spath = f"{path}[{i}]"
        if not {"t0", "t1", "system"} <= set(_mapping(sn, spath)):
            raise ScenarioError(spath, "segment needs t0, t1 and 'system'")
        t0, t1 = _number(sn["t0"], spath + ".t0"), _number(sn["t1"], spath + ".t1")
        h = _parse_hermitian(sn["system"], spath + ".system", names, s_dim)
        segs.append(_checked(spath, Segment, t0, t1, h))
    if not segs:
        raise ScenarioError(path, "protocol needs at least one segment")
    if not (same_instant(segs[0].t0, t_start) and same_instant(segs[-1].t1, t_end)):
        raise ScenarioError(path, f"segments must cover [{t_start}, {t_end}]")
    return _checked(path, Protocol, segs).base


def parse_scenario_dict(data: Mapping, source: str = "<memory>") -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioError(source, "scenario document must be a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(source, f"unknown top-level key(s) {sorted(unknown)}")
    for key in ("name", "beta", "system"):
        if key not in data:
            raise ScenarioError(source, f"missing required key {key!r}")
    name = str(data["name"])
    beta = _number(data["beta"], "beta")
    if beta <= 0:
        raise ScenarioError("beta", f"must be positive, got {beta}")
    mean_force = str(data.get("mean_force", "exact"))
    if mean_force not in ("exact", "bare"):
        raise ScenarioError("mean_force", f"must be 'exact' or 'bare', got {mean_force!r}")

    system = _mapping(data["system"], "system", {"dim"})
    s_dim = _number(system.get("dim", 0), "system.dim", int)
    if s_dim < 2:
        raise ScenarioError("system.dim", f"needs dimension >= 2, got {s_dim}")

    names: dict[str, np.ndarray] = {}
    for mname, mnode in _mapping(data.get("matrices") or {}, "matrices").items():
        names[str(mname)] = _parse_matrix(mnode, f"matrices.{mname}", names)

    bath = _mapping(data.get("bath") or {}, "bath", {"dim", "hamiltonian"})
    b_dim = _number(bath.get("dim", 1), "bath.dim", int)
    if b_dim < 1:
        raise ScenarioError("bath.dim", f"needs dimension >= 1, got {b_dim}")
    h_bath = None
    if "hamiltonian" in bath:
        h_bath = _parse_hermitian(bath["hamiltonian"], "bath.hamiltonian", names, b_dim)
    v_coupling = None
    if data.get("coupling") is not None:
        v_coupling = _parse_hermitian(data["coupling"], "coupling", names, s_dim * b_dim)

    # time horizon and drive
    tspan = _mapping(data.get("time") or {}, "time", {"start", "end"})
    t_start = _number(tspan.get("start", 0.0), "time.start")
    steps_node = [_mapping(sn, f"steps[{i}]", _STEP_KEYS)
                  for i, sn in enumerate(_sequence(data.get("steps"), "steps"))]
    step_times = []
    for i, sn in enumerate(steps_node):
        if "time" not in sn:
            raise ScenarioError(f"steps[{i}]", "step needs a 'time'")
        step_times.append(_number(sn["time"], f"steps[{i}].time"))
    report_times = [_number(t, f"report_times[{i}]") for i, t in
                    enumerate(_sequence(data.get("report_times"), "report_times"))]
    default_end = max([t_start + 1.0] + report_times + step_times)
    t_end = _number(tspan.get("end", default_end), "time.end")
    if not before(t_start, t_end):
        raise ScenarioError("time", f"end {t_end} must exceed start {t_start}")

    if "protocol" in data and "system_hamiltonian" in data:
        raise ScenarioError("protocol", "give either 'protocol' or "
                                        "'system_hamiltonian', not both")
    if "protocol" in data:
        base = _parse_timeline(data["protocol"], "protocol", names, s_dim,
                               t_start, t_end)
    else:
        h0 = _parse_hermitian(data.get("system_hamiltonian", {"zeros": s_dim}),
                              "system_hamiltonian", names, s_dim)
        base = [Segment(t_start, t_end, h0)]

    # steps
    steps: list[dict] = []
    for i, sn in enumerate(steps_node):
        spath = f"steps[{i}]"
        entry: dict = {"time": step_times[i]}
        if ("instrument" in sn) == ("collision" in sn):
            raise ScenarioError(spath, "step needs exactly one of "
                                       "'instrument' or 'collision'")
        if "instrument" in sn:
            entry["instrument"] = _parse_instrument(sn["instrument"],
                                                    spath + ".instrument", names, s_dim)
            if "ancilla_hamiltonian" in sn:
                entry["h_ancilla"] = _parse_hermitian(
                    sn["ancilla_hamiltonian"], spath + ".ancilla_hamiltonian", names)
        elif "ancilla_hamiltonian" in sn:
            raise ScenarioError(spath + ".ancilla_hamiltonian",
                                "a collision step declares its ancilla Hamiltonian "
                                "as collision.ancilla.hamiltonian")
        else:
            cpath = spath + ".collision"
            col = _mapping(sn["collision"], cpath, _COLLISION_KEYS)
            anc = _mapping(col.get("ancilla") or {}, cpath + ".ancilla", _ANCILLA_KEYS)
            d_anc = _number(anc.get("dim", 0), cpath + ".ancilla.dim", int)
            if d_anc < 1:
                raise ScenarioError(cpath + ".ancilla.dim", "needs a positive dim")
            h_anc_node = anc.get("hamiltonian")
            h_anc = None if h_anc_node is None else _parse_hermitian(
                h_anc_node, cpath + ".ancilla.hamiltonian", names, d_anc)
            state = _parse_state(anc.get("state", {"pure": [1.0] + [0.0] * (d_anc - 1)}),
                                 cpath + ".ancilla.state", d_anc, beta, h_anc, names)
            unode = col.get("unitary")
            if unode == "swap" or (isinstance(unode, Mapping) and unode.get("swap")):
                if d_anc != s_dim:
                    raise ScenarioError(cpath + ".unitary",
                                        "swap needs ancilla dim == system dim")
                u = np.eye(s_dim * d_anc, dtype=complex)[
                    [a * s_dim + s for s in range(s_dim) for a in range(d_anc)]]
            else:
                u = _parse_matrix(unode, cpath + ".unitary", names, s_dim * d_anc)
            projs = col.get("projectors")
            if projs is not None:
                projs = [_parse_matrix(p, f"{cpath}.projectors[{j}]", names, d_anc)
                         for j, p in enumerate(_sequence(projs, cpath + ".projectors"))]
            labels = col.get("labels")
            entry["collision"] = {
                "ancilla_state": state, "unitary": u, "projectors": projs,
                "labels": None if labels is None else [
                    _label(l, f"{cpath}.labels[{j}]")
                    for j, l in enumerate(_sequence(labels, cpath + ".labels"))]}
            entry["h_ancilla"] = h_anc
        if "window" in sn:
            wpath, window = spath + ".window", sn["window"]
            if isinstance(window, Mapping):
                window = _mapping(window, wpath, {"width"}).get("width", 0.0)
                wpath += ".width"
            width = _number(window, wpath)
            if width <= 0:
                raise ScenarioError(spath + ".window", "width must be positive")
            entry["window"] = width
        steps.append(entry)

    # feedback
    feedback: dict[int, dict[tuple[str, ...], Instrument]] = {}
    variants: dict[tuple[str, ...], tuple[Segment, ...]] = {}
    declared: dict[tuple[str, ...], int] = {}   # prefix -> its feedback index
    for i, fn in enumerate(_sequence(data.get("feedback"), "feedback")):
        fpath = f"feedback[{i}]"
        if not isinstance(fn, Mapping) or "prefix" not in fn:
            raise ScenarioError(fpath, "feedback entry needs a 'prefix'")
        prefix = tuple(str(l) for l in _sequence(fn["prefix"], fpath + ".prefix"))
        if not prefix:
            raise ScenarioError(fpath + ".prefix", "prefix cannot be empty")
        if prefix in declared:
            raise ScenarioError(fpath + ".prefix", f"prefix {list(prefix)} is already "
                                f"declared at feedback[{declared[prefix]}]")
        declared[prefix] = i
        for snode, inode in _mapping(fn.get("instruments") or {},
                                     fpath + ".instruments").items():
            k = _number(snode, f"{fpath}.instruments.{snode}", int)
            if not 0 <= k < len(steps):
                raise ScenarioError(f"{fpath}.instruments.{snode}",
                                    f"no step with index {k}")
            if "instrument" not in steps[k]:
                raise ScenarioError(f"{fpath}.instruments.{snode}",
                                    "only instrument steps accept overrides")
            feedback.setdefault(k, {})[prefix] = _parse_instrument(
                inode, f"{fpath}.instruments.{snode}", names, s_dim)
        if "protocol" in fn:
            variants[prefix] = _parse_timeline(fn["protocol"], fpath + ".protocol",
                                               names, s_dim, t_start, t_end)

    # initial state
    initial = _mapping(data.get("initial") or {}, "initial", {"sb"})
    sb_node = initial.get("sb", "gibbs")
    initial_gibbs = sb_node == "gibbs" or (isinstance(sb_node, Mapping)
                                           and sb_node.get("gibbs"))
    initial_sb = None
    if not initial_gibbs:
        if not isinstance(sb_node, Mapping) or "matrix" not in sb_node:
            raise ScenarioError("initial.sb", "must be 'gibbs' or {matrix: ...}")
        initial_sb = _check_density(
            _parse_matrix(sb_node["matrix"], "initial.sb.matrix", names,
                          s_dim * b_dim), "initial.sb.matrix")

    if not report_times:
        report_times = [t_end]
    for i, t in enumerate(report_times):
        if before(t, t_start) or before(t_end, t):
            raise ScenarioError(f"report_times[{i}]",
                                f"{t} outside [{t_start}, {t_end}]")
        # Simulator.run's rule: the last step run by t must have closed its window
        k = len(list(takewhile(lambda st: not before(t, st["time"]), steps))) - 1
        if k >= 0 and "window" in steps[k] and \
                before(t, steps[k]["time"] + steps[k]["window"]):
            raise ScenarioError(f"report_times[{i}]",
                                f"{t} falls inside the control window of steps[{k}]")

    options = dict(_mapping(data.get("options") or {}, "options", _OPTION_KEYS))
    if "prune_threshold" in options:
        path = "options.prune_threshold"
        options["prune_threshold"] = _checked(path, DEFAULT.replaced, prune=_number(
            options["prune_threshold"], path)).prune
    spec = dict(
        s_dim=s_dim, b_dim=b_dim, beta=beta,
        protocol=_checked("feedback", Protocol, base, variants),
        h_bath=h_bath, v_coupling=v_coupling, steps=steps, feedback=feedback,
        sb_init=initial_sb, mean_force_bare=mean_force == "bare", name=name)
    return Scenario(spec, sorted(set(report_times)), options)


_STR_TAG, _FLOAT_TAG = "tag:yaml.org,2002:str", "tag:yaml.org,2002:float"
# a subset of PyYAML's float pattern, which PyYAML tries before its int and
# timestamp patterns on a scalar that starts with a sign or a digit
_PLAIN_FLOAT = re.compile(r"[-+]?[0-9]+\.[0-9]*(?:[eE][-+][0-9]+)?")


class _PlainScalarRules:
    """Resolves the two plain-scalar forms a scenario is mostly made of
    (module docstring) before PyYAML's Python-level resolver, which tries
    its regexes one by one on every scalar; the tag is the one it would
    give.  Every other scalar goes to that resolver."""

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0]:
            if value.endswith("i"):
                return _STR_TAG
            if _PLAIN_FLOAT.fullmatch(value):
                return _FLOAT_TAG
        return super().resolve(kind, value, implicit)


class _YAML_LOADER(_PlainScalarRules, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader with the plain-scalar rules, libyaml's when PyYAML has
    it (several times faster on large matrices); a repeated key is a ValueError."""

    def construct_mapping(self, node, deep=False):
        own = node.value    # its own pairs: a merge key (<<) rebinds node.value
        mapping = super().construct_mapping(node, deep)
        if len(mapping) < len(node.value):    # a key repeats, or overrides a merged one
            first = {}
            for key, _ in own:
                if first.setdefault(self.construct_object(key), key) is not key:
                    raise ValueError(f"line {key.start_mark.line + 1}: duplicate key {key.value!r}")
        return mapping


class _RefusalFinder(_YAML_LOADER):
    """The scenario loader, noting the first node whose construction raised
    a ValueError.  PyYAML builds the items of a sequence or a nested
    mapping after the mapping that holds it, where no mark is at hand, so a
    failed load is replayed with this loader to find the refused value."""

    refused = None

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep)
        except ValueError:
            if self.refused is None:
                self.refused = node
            raise


def _refused_scalar_line(text: str) -> int | None:
    """The line of the scalar whose refusal made loading ``text`` fail, or
    None when no scalar was refused (a repeated key names its own line)."""
    loader = _RefusalFinder(text)
    try:
        loader.get_single_data()
    except ValueError:
        pass
    finally:
        loader.dispose()
    if isinstance(loader.refused, yaml.ScalarNode):
        return loader.refused.start_mark.line + 1
    return None


def parse_scenario(path: str) -> Scenario:
    """Load, parse and validate a scenario file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read scenario: {exc}") from None
    try:
        text = raw.decode("utf-8")
        data = yaml.load(text, Loader=_YAML_LOADER)
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(path), f"not UTF-8: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark else "unknown position"
        raise ScenarioError(str(path), f"YAML syntax error at {where}: {exc}") from None
    except ValueError as exc:    # a constructor refused a value, or a key repeats
        line = _refused_scalar_line(text)
        where = "" if line is None else f"line {line}: "
        raise ScenarioError(str(path), f"cannot load YAML: {where}{exc}") from None
    scenario = parse_scenario_dict(data, source=str(path))
    scenario.checksum = hashlib.sha256(raw).hexdigest()
    return scenario


def build_model(scenario: Scenario) -> AutonomousModel:
    """Assemble the inclusive model a scenario describes."""
    try:
        return AutonomousModel.assemble(**scenario.spec)
    except ValueError as exc:
        raise ScenarioError(scenario.name, f"cannot assemble model: {exc}") from None
