"""Session files: a ring and its named modules in a small text format.

A session file declares one monomial quotient ring over a prime field and
any number of named modules, each given by kind:

    # R1 = GF(2)[x,y] / (x^2, x*y, y^2)
    [ring]
    name = "R1"
    field = 2
    variables = ["x", "y"]
    relations = ["x^2", "x*y", "y^2"]

    [module.k]
    kind = "residue_field"

    [module.M]
    kind = "cokernel"
    rows = 1
    cols = 2
    entries = ["x", "y"]          # row-major polynomial entries

The syntax is a TOML-compatible subset (sections, `key = value`, integers,
double-quoted strings, flat arrays, `#` comments) parsed by hand so every
error carries an exact line and column.  Module kinds: "free" (with rank),
"cokernel" (rows, cols, entries), "dualizing", "residue_field".  Polynomial
entries follow the grammar of algebra.parse_polynomial; coefficients reduce
mod p, and an entry that reduces to zero is accepted with a warning.

render() writes a session back out canonically; parsing the rendered text
reproduces an equal SessionFile.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, algebra_from_monomial_quotient, parse_polynomial
from .errors import InputError, ParseError
from .linalg import Field
from .modules import (Module, dualizing_module, free_module,
                      presentation_to_module, residue_field_module)

MODULE_KINDS = ("free", "cokernel", "dualizing", "residue_field")

# keys each section may carry; kind-specific restrictions checked separately
_RING_KEYS = {"name", "field", "variables", "relations"}
_MODULE_KEYS = {"kind", "rank", "rows", "cols", "entries"}
_KIND_KEYS = {
    "free": {"kind", "rank"},
    "cokernel": {"kind", "rows", "cols", "entries"},
    "dualizing": {"kind"},
    "residue_field": {"kind"},
}


@dataclass(frozen=True)
class ModuleSpec:
    """One named module declaration; payload fields depend on kind.

    A cokernel spec comes from the parser, which also keeps its entries'
    coefficient vectors, a read-only (rows, cols, dim R) array; building the
    module reads only those and parses nothing.  `entries` stays the text
    that render() writes and equality compares.
    """

    kind: str
    rank: int = 1
    rows: int = 0
    cols: int = 0
    entries: tuple[str, ...] = ()
    vectors: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class SessionFile:
    name: str
    modulus: int
    variables: tuple[str, ...]
    relations: tuple[str, ...]
    modules: dict[str, ModuleSpec] = field(default_factory=dict)
    warnings: tuple[str, ...] = field(default=(), compare=False)
    _ring: Algebra | None = field(default=None, compare=False, repr=False)

    def ring(self) -> Algebra:
        if self._ring is None:
            self._ring = algebra_from_monomial_quotient(
                Field(self.modulus), list(self.variables),
                list(self.relations), name=self.name)
        return self._ring

    def module(self, name: str, ring: Algebra | None = None) -> Module:
        if name not in self.modules:
            known = ", ".join(self.modules) or "none"
            raise InputError(f"unknown module name '{name}' (declared: {known})")
        R = ring if ring is not None else self.ring()
        spec = self.modules[name]
        if spec.kind == "free":
            mod = free_module(R, spec.rank)
        elif spec.kind == "residue_field":
            mod = residue_field_module(R)
        elif spec.kind == "dualizing":
            mod = dualizing_module(R)
        else:
            mod, _ = presentation_to_module(R, spec.rows, spec.cols, spec.vectors)
        return mod.relabelled(name)


def _is_identifier(s: str) -> bool:
    return s.isidentifier()


# -- tokenizing one line -----------------------------------------------------


def _strip_comment(text: str) -> str:
    in_str = False
    for i, ch in enumerate(text):
        if ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            return text[:i]
    return text


def _parse_scalar(text: str, ln: int, pos: int):
    """Parse an int or quoted string at pos; returns (kind, value, col, next_pos)."""
    n = len(text)
    col = pos + 1
    ch = text[pos]
    if ch == '"':
        j = pos + 1
        while j < n and text[j] != '"':
            if text[j] == "\\":
                raise ParseError("backslash escapes are not supported", ln, j + 1)
            j += 1
        if j >= n:
            raise ParseError("unterminated string", ln, col)
        return "str", text[pos + 1:j], col, j + 1
    if ch.isdigit() or (ch == "-" and pos + 1 < n and text[pos + 1].isdigit()):
        j = pos + 1
        while j < n and text[j].isdigit():
            j += 1
        return "int", int(text[pos:j]), col, j
    raise ParseError("expected an integer, string, or array", ln, col)


def _parse_value(text: str, ln: int, pos: int):
    """Parse a full value; returns (kind, payload, col, next_pos).

    kind "list": payload is a list of (value, column) pairs and the element
    kind is appended as ("list", payload, col, next_pos, elem_kind).
    """
    n = len(text)
    while pos < n and text[pos] in " \t":
        pos += 1
    if pos >= n:
        raise ParseError("missing value after '='", ln, pos + 1)
    if text[pos] != "[":
        kind, v, col, nxt = _parse_scalar(text, ln, pos)
        return kind, v, col, nxt, None
    col = pos + 1
    pos += 1
    items: list[tuple[object, int]] = []
    elem_kind = None
    while True:
        while pos < n and text[pos] in " \t":
            pos += 1
        if pos >= n:
            raise ParseError("unterminated array", ln, col)
        if text[pos] == "]":
            return "list", items, col, pos + 1, elem_kind
        kind, v, vcol, pos = _parse_scalar(text, ln, pos)
        if elem_kind is None:
            elem_kind = kind
        elif kind != elem_kind:
            raise ParseError("mixed element types in array", ln, vcol)
        items.append((v, vcol))
        while pos < n and text[pos] in " \t":
            pos += 1
        if pos < n and text[pos] == ",":
            pos += 1
        elif pos < n and text[pos] != "]":
            raise ParseError("expected ',' or ']' in array", ln, pos + 1)


@dataclass
class _Entry:
    kind: str            # "int" | "str" | "list"
    value: object
    elem_kind: str | None
    line: int
    col: int             # column of the value
    key_col: int


@dataclass
class _Section:
    parts: tuple[str, ...]
    line: int
    col: int
    entries: dict[str, _Entry] = field(default_factory=dict)


def _tokenize(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("section header must end with ']'", ln, indent + 1)
            inner = stripped[1:-1].strip()
            if not inner:
                raise ParseError("empty section name", ln, indent + 1)
            parts = tuple(p.strip() for p in inner.split("."))
            if any(not _is_identifier(p) for p in parts):
                raise ParseError(f"bad section name '{inner}'", ln, indent + 2)
            current = _Section(parts, ln, indent + 1)
            sections.append(current)
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value' or a [section] header",
                             ln, indent + 1)
        if current is None:
            raise ParseError("key outside any [section]", ln, indent + 1)
        eq = line.index("=")
        key = line[:eq].strip()
        key_col = indent + 1
        if not _is_identifier(key):
            raise ParseError(f"bad key '{key}'", ln, key_col)
        if key in current.entries:
            raise ParseError(f"duplicate key '{key}'", ln, key_col)
        kind, value, vcol, nxt, elem_kind = _parse_value(line, ln, eq + 1)
        tail = line[nxt:].strip()
        if tail:
            raise ParseError(f"unexpected text after value: '{tail}'",
                             ln, nxt + len(line[nxt:]) - len(line[nxt:].lstrip()) + 1)
        current.entries[key] = _Entry(kind, value, elem_kind, ln, vcol, key_col)
    return sections


# -- assembling and validating ----------------------------------------------


def _want(sec: _Section, key: str, kind: str, required: bool,
          default=None) -> _Entry | None:
    ent = sec.entries.get(key)
    if ent is None:
        if required:
            raise ParseError(f"[{'.'.join(sec.parts)}] is missing required "
                             f"key '{key}'", sec.line, sec.col)
        return default
    if ent.kind != kind:
        want = {"int": "an integer", "str": "a string", "list": "an array"}[kind]
        raise ParseError(f"key '{key}' needs {want}", ent.line, ent.col)
    return ent


def _str_list(sec: _Section, key: str, required: bool) -> list[tuple[str, int, int]]:
    """Array-of-strings key as (value, line, col) triples; [] when absent."""
    ent = _want(sec, key, "list", required)
    if ent is None:
        return []
    if ent.value and ent.elem_kind != "str":
        raise ParseError(f"key '{key}' needs an array of strings",
                         ent.line, ent.col)
    return [(v, ent.line, c) for v, c in ent.value]


def _located_poly(text: str, variables: list[str], ln: int, col: int):
    """Parse a polynomial, shifting any error to file coordinates.

    col is the column of the element's opening quote, so content character
    c sits at file column col + c.
    """
    try:
        return parse_polynomial(text, variables)
    except ParseError as exc:
        raise ParseError(exc.message, ln, col + exc.column) from None


def _assemble_ring(sec: _Section) -> tuple[str, int, tuple[str, ...],
                                           tuple[str, ...], Algebra]:
    for key, ent in sec.entries.items():
        if key not in _RING_KEYS:
            raise ParseError(f"unknown key '{key}' in [ring]", ent.line, ent.key_col)
    name_ent = _want(sec, "name", "str", required=False)
    name = name_ent.value if name_ent is not None else "R"
    fld = _want(sec, "field", "int", required=True)
    try:
        field_obj = Field(fld.value)
    except InputError as exc:
        raise ParseError(str(exc), fld.line, fld.col) from None
    variables = []
    for v, ln, col in _str_list(sec, "variables", required=True):
        if not _is_identifier(v):
            raise ParseError(f"bad variable name '{v}'", ln, col)
        if v in variables:
            raise ParseError(f"duplicate variable name '{v}'", ln, col)
        variables.append(v)
    relations = []
    for rel, ln, col in _str_list(sec, "relations", required=False):
        terms = _located_poly(rel, variables, ln, col)
        if len(terms) != 1:
            raise ParseError("relations must be monomials", ln, col)
        coeff, exps = terms[0]
        if coeff % field_obj.p == 0:
            raise ParseError(f"relation '{rel}' has coefficient 0 modulo "
                             f"{field_obj.p}", ln, col)
        if all(e == 0 for e in exps):
            raise ParseError(f"relation '{rel}' is a unit; the quotient "
                             "would be zero", ln, col)
        relations.append(rel)
    try:
        ring = algebra_from_monomial_quotient(field_obj, variables,
                                              relations, name=name)
    except InputError as exc:
        raise ParseError(str(exc), sec.line, sec.col) from None
    return name, field_obj.p, tuple(variables), tuple(relations), ring


def _assemble_module(sec: _Section, variables: list[str], ring: Algebra,
                     warnings: list[str]) -> ModuleSpec:
    kind_ent = _want(sec, "kind", "str", required=True)
    kind = kind_ent.value
    if kind not in MODULE_KINDS:
        raise ParseError(f"unknown module kind '{kind}' (one of: "
                         f"{', '.join(MODULE_KINDS)})", kind_ent.line, kind_ent.col)
    allowed = _KIND_KEYS[kind]
    for key, ent in sec.entries.items():
        if key not in _MODULE_KEYS:
            raise ParseError(f"unknown key '{key}' in [{'.'.join(sec.parts)}]",
                             ent.line, ent.key_col)
        if key not in allowed:
            raise ParseError(f"key '{key}' is not allowed for kind '{kind}'",
                             ent.line, ent.key_col)
    if kind == "free":
        rank_ent = _want(sec, "rank", "int", required=False)
        rank = rank_ent.value if rank_ent is not None else 1
        if rank < 0:
            raise ParseError("rank must be nonnegative", rank_ent.line, rank_ent.col)
        return ModuleSpec("free", rank=rank)
    if kind in ("dualizing", "residue_field"):
        return ModuleSpec(kind)
    rows_ent = _want(sec, "rows", "int", required=True)
    cols_ent = _want(sec, "cols", "int", required=True)
    rows, cols = rows_ent.value, cols_ent.value
    if rows < 0:
        raise ParseError("rows must be nonnegative", rows_ent.line, rows_ent.col)
    if cols < 0:
        raise ParseError("cols must be nonnegative", cols_ent.line, cols_ent.col)
    ents = _str_list(sec, "entries", required=(rows * cols > 0))
    if len(ents) != rows * cols:
        where = sec.entries.get("entries", rows_ent)
        raise ParseError(f"need rows*cols = {rows * cols} entries, got "
                         f"{len(ents)}", where.line, where.col)
    p = ring.field.p
    vectors = np.zeros((rows * cols, ring.dim), dtype=np.int64)
    for e, (s, ln, col) in enumerate(ents):
        terms = _located_poly(s, variables, ln, col)
        vectors[e] = ring.monomial_data.element_from_terms(ring.field, terms)
        if not vectors[e].any() and s.strip() != "0":
            warnings.append(f"line {ln}: entry '{s}' reduces to 0 over GF({p})")
    vectors = vectors.reshape(rows, cols, ring.dim)
    vectors.setflags(write=False)
    return ModuleSpec("cokernel", rows=rows, cols=cols,
                      entries=tuple(s for s, _, _ in ents), vectors=vectors)


def parse_session_text(text: str) -> SessionFile:
    sections = _tokenize(text)
    ring_secs = [s for s in sections if s.parts == ("ring",)]
    if not ring_secs:
        last = max((s.line for s in sections), default=1)
        raise ParseError("missing [ring] section", last, 1)
    if len(ring_secs) > 1:
        dup = ring_secs[1]
        raise ParseError("duplicate [ring] section", dup.line, dup.col)
    name, p, variables, relations, ring = _assemble_ring(ring_secs[0])
    warnings: list[str] = []
    modules: dict[str, ModuleSpec] = {}
    for sec in sections:
        if sec.parts == ("ring",):
            continue
        if sec.parts[0] != "module":
            raise ParseError(f"unknown section [{'.'.join(sec.parts)}]",
                             sec.line, sec.col)
        if len(sec.parts) != 2:
            raise ParseError("module sections are named [module.NAME]",
                             sec.line, sec.col)
        mod_name = sec.parts[1]
        if mod_name in modules:
            raise ParseError(f"duplicate module name '{mod_name}'",
                             sec.line, sec.col)
        modules[mod_name] = _assemble_module(sec, list(variables), ring, warnings)
    return SessionFile(name, p, variables, relations, modules,
                       warnings=tuple(warnings), _ring=ring)


def parse_session(path) -> SessionFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read session file {path}: {exc}") from None
    return parse_session_text(text)


def _quoted(s: str) -> str:
    if any(ch in s for ch in '"\\\n#'):
        raise InputError(f"string {s!r} cannot be rendered in a session file")
    return f'"{s}"'


def render(session: SessionFile) -> str:
    """Canonical text form; parse_session_text(render(s)) equals s."""
    lines = ["[ring]",
             f"name = {_quoted(session.name)}",
             f"field = {session.modulus}",
             "variables = [" + ", ".join(_quoted(v) for v in session.variables) + "]",
             "relations = [" + ", ".join(_quoted(r) for r in session.relations) + "]"]
    for name, spec in session.modules.items():
        lines += ["", f"[module.{name}]", f"kind = {_quoted(spec.kind)}"]
        if spec.kind == "free":
            lines.append(f"rank = {spec.rank}")
        elif spec.kind == "cokernel":
            lines.append(f"rows = {spec.rows}")
            lines.append(f"cols = {spec.cols}")
            lines.append("entries = [" + ", ".join(_quoted(e) for e in spec.entries) + "]")
    return "\n".join(lines) + "\n"
