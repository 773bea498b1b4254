"""Session file parsing, rendering, and located error reporting."""

import pytest

from semidual.corpus import corpus_rings, corpus_sessions
from semidual.errors import InputError, ParseError
from semidual.algebra import algebra_from_monomial_quotient
from semidual.linalg import Field
from semidual.modules import (clear_caches, dualizing_module, regular_module,
                              residue_field_module)
from semidual.sessions import (ModuleSpec, SessionFile, parse_session,
                               parse_session_text, render)

GOOD = """\
# demo ring
[ring]
name = "R1"
field = 2
variables = ["x", "y"]
relations = ["x^2", "x*y", "y^2"]

[module.k]
kind = "residue_field"

[module.D]
kind = "dualizing"

[module.F]
kind = "free"
rank = 2

[module.M]
kind = "cokernel"
rows = 1
cols = 2
entries = ["x", "y"]   # presents R/(x,y) badly on purpose? no: R/(x,y) = k
"""


def loc(exc_info) -> tuple[int, int]:
    return exc_info.value.line, exc_info.value.column


class TestParseValid:
    def test_fields(self):
        s = parse_session_text(GOOD)
        assert s.name == "R1"
        assert s.modulus == 2
        assert s.variables == ("x", "y")
        assert s.relations == ("x^2", "x*y", "y^2")
        assert list(s.modules) == ["k", "D", "F", "M"]
        assert s.modules["F"] == ModuleSpec("free", rank=2)
        assert s.modules["M"] == ModuleSpec("cokernel", rows=1, cols=2,
                                            entries=("x", "y"))
        assert s.warnings == ()

    def test_ring_construction(self):
        s = parse_session_text(GOOD)
        ring = s.ring()
        assert ring.dim == 3
        assert ring.name == "R1"
        assert ring is s.ring()

    def test_module_instantiation(self):
        s = parse_session_text(GOOD + '\n[module.R]\nkind = "free"\nrank = 1\n')
        ring = s.ring()
        assert s.module("k").dim == 1
        assert s.module("D").dim == 3
        assert s.module("F").dim == 2 * ring.dim
        # coker of (x y): R / (x,y) = k
        assert s.module("M").dim == 1
        assert s.module("M").label == "M"
        # named copies share fingerprints with the ring's cached modules but
        # leave their labels alone
        shared = {"R": regular_module(ring), "D": dualizing_module(ring),
                  "k": residue_field_module(ring)}
        labels = {name: mod.label for name, mod in shared.items()}
        for name, mod in shared.items():
            named = s.module(name)
            assert named.label == name
            assert named.fingerprint == mod.fingerprint
        assert {name: mod.label for name, mod in shared.items()} == labels
        assert regular_module(ring).label == "R1"

    def test_unknown_module_name(self):
        s = parse_session_text(GOOD)
        with pytest.raises(InputError, match="unknown module name 'Q'"):
            s.module("Q")

    def test_modules_are_built_once_per_cache_lifetime(self):
        s = parse_session_text(GOOD)
        clear_caches()
        built = {name: s.module(name) for name in s.modules}
        for name, mod in built.items():
            assert s.module(name) is mod, name
            assert s.module(name, s.ring()) is mod, name
        # a cleared cache builds afresh, with an equal module
        clear_caches()
        for name, mod in built.items():
            again = s.module(name)
            assert again is not mod and again.fingerprint == mod.fingerprint, name
        # another session or another ring object shares no entry
        other = parse_session_text(GOOD)
        ring = algebra_from_monomial_quotient(Field(2), ["x", "y"], ["x^2", "x*y", "y^2"],
                                              name="R1")
        for name in s.modules:
            mine = s.module(name)
            for theirs in (other.module(name), s.module(name, ring)):
                assert theirs is not mine and theirs.fingerprint == mine.fingerprint, name
        with pytest.raises(InputError, match="unknown module name 'Q'"):
            s.module("Q")
        clear_caches()

    def test_name_defaults(self):
        s = parse_session_text("[ring]\nfield = 2\nvariables = [\"x\"]\n"
                               "relations = [\"x^2\"]\n")
        assert s.name == "R"
        assert s.relations == ("x^2",)

    def test_empty_relations_rejected_as_not_cofinite(self):
        # no pure power of x among the relations: infinite dimensional
        with pytest.raises(ParseError, match="not cofinite"):
            parse_session_text("[ring]\nfield = 2\nvariables = [\"x\"]\n")

    def test_zero_rank_free(self):
        s = parse_session_text(GOOD + "\n[module.Z]\nkind = \"free\"\nrank = 0\n")
        assert s.module("Z").dim == 0

    def test_comments_and_whitespace(self):
        text = ('  [ring]   # header\n  field = 2\n  variables = [ "x" ]\n'
                '  relations = [ "x^2" , ]  # trailing comma tolerated\n')
        s = parse_session_text(text)
        assert s.modulus == 2
        assert s.relations == ("x^2",)


class TestWarnings:
    def test_entry_reducing_to_zero_warns(self):
        text = GOOD.replace('entries = ["x", "y"]', 'entries = ["2*x", "y"]')
        s = parse_session_text(text)
        assert len(s.warnings) == 1
        assert "reduces to 0 over GF(2)" in s.warnings[0]
        assert "'2*x'" in s.warnings[0]
        # the module still instantiates; the zero column relaxes nothing
        assert s.module("M").dim == 2

    def test_literal_zero_entry_no_warning(self):
        text = GOOD.replace('entries = ["x", "y"]', 'entries = ["x", "0"]')
        assert parse_session_text(text).warnings == ()

    def test_no_warning_when_coefficient_survives(self):
        text = GOOD.replace('field = 2', 'field = 3')
        text = text.replace('entries = ["x", "y"]', 'entries = ["2*x", "y"]')
        assert parse_session_text(text).warnings == ()


class TestRoundTrip:
    def test_synthetic(self):
        s = parse_session_text(GOOD)
        assert parse_session_text(render(s)) == s

    def test_corpus_files(self):
        for name, s in corpus_sessions().items():
            again = parse_session_text(render(s))
            assert again == s, name

    def test_render_rejects_unquotable(self):
        s = SessionFile("R", 2, ("x",), ('x"2',))
        with pytest.raises(InputError, match="cannot be rendered"):
            render(s)


class TestCorpusSessions:
    def test_rings_match_corpus(self):
        rings = corpus_rings()
        for name, s in corpus_sessions().items():
            assert s.ring().fingerprint == rings[name].fingerprint

    def test_module_names_uniform(self):
        for s in corpus_sessions().values():
            assert list(s.modules) == ["k", "D", "F", "M"]

    def test_parse_session_reads_files(self, tmp_path):
        path = tmp_path / "demo.session"
        path.write_text(GOOD, encoding="utf-8")
        assert parse_session(path).name == "R1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read session file"):
            parse_session(tmp_path / "absent.session")


class TestLocatedErrors:
    def test_non_monomial_relation(self):
        text = GOOD.replace('"x*y"', '"x+y"')
        with pytest.raises(ParseError, match="relations must be monomials") as ei:
            parse_session_text(text)
        line = text.splitlines()[ei.value.line - 1]
        assert '"x+y"' in line
        assert ei.value.column == line.index('"x+y"') + 1

    def test_unknown_variable_in_relation(self):
        text = GOOD.replace('"y^2"', '"z^2"')
        with pytest.raises(ParseError, match="unknown variable 'z'") as ei:
            parse_session_text(text)
        line = text.splitlines()[ei.value.line - 1]
        assert ei.value.column == line.index('"z^2"') + 2  # points at the z

    def test_unknown_variable_in_entry(self):
        text = GOOD.replace('entries = ["x", "y"]', 'entries = ["x", "x + w"]')
        with pytest.raises(ParseError, match="unknown variable 'w'") as ei:
            parse_session_text(text)
        line = text.splitlines()[ei.value.line - 1]
        assert ei.value.column == line.index("w", line.index("entries")) + 1

    def test_malformed_polynomial(self):
        text = GOOD.replace('"x*y"', '"x*"')
        with pytest.raises(ParseError, match="expected a coefficient or variable"):
            parse_session_text(text)

    def test_duplicate_module_name(self):
        text = GOOD + '\n[module.k]\nkind = "free"\n'
        with pytest.raises(ParseError, match="duplicate module name 'k'") as ei:
            parse_session_text(text)
        assert loc(ei) == (len(GOOD.splitlines()) + 2, 1)

    def test_duplicate_key(self):
        text = GOOD.replace('rank = 2', 'rank = 2\nrank = 3')
        with pytest.raises(ParseError, match="duplicate key 'rank'"):
            parse_session_text(text)

    def test_missing_ring(self):
        with pytest.raises(ParseError, match=r"missing \[ring\] section"):
            parse_session_text('[module.k]\nkind = "residue_field"\n')

    def test_duplicate_ring(self):
        text = GOOD + "\n[ring]\nfield = 3\n"
        with pytest.raises(ParseError, match=r"duplicate \[ring\] section") as ei:
            parse_session_text(text)
        assert ei.value.line == len(GOOD.splitlines()) + 2

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing required key 'field'"):
            parse_session_text('[ring]\nvariables = ["x"]\nrelations = ["x^2"]\n')

    def test_missing_kind(self):
        text = GOOD + "\n[module.Q]\nrows = 1\n"
        with pytest.raises(ParseError, match="missing required key 'kind'"):
            parse_session_text(text)

    def test_wrong_value_type(self):
        text = GOOD.replace("field = 2", 'field = "2"')
        with pytest.raises(ParseError, match="key 'field' needs an integer") as ei:
            parse_session_text(text)
        assert loc(ei) == (4, 9)

    def test_non_prime_field(self):
        text = GOOD.replace("field = 2", "field = 6")
        with pytest.raises(ParseError, match="must be prime") as ei:
            parse_session_text(text)
        assert loc(ei) == (4, 9)

    def test_unknown_section(self):
        text = GOOD + "\n[modules.extra]\nkind = \"free\"\n"
        with pytest.raises(ParseError, match=r"unknown section \[modules.extra\]"):
            parse_session_text(text)

    def test_unnamed_module_section(self):
        text = GOOD + "\n[module]\nkind = \"free\"\n"
        with pytest.raises(ParseError, match=r"named \[module.NAME\]"):
            parse_session_text(text)

    def test_unknown_key_in_ring(self):
        text = GOOD.replace('name = "R1"', 'name = "R1"\nloewy = 2')
        with pytest.raises(ParseError, match="unknown key 'loewy'"):
            parse_session_text(text)

    def test_key_not_allowed_for_kind(self):
        text = GOOD.replace('kind = "dualizing"', 'kind = "dualizing"\nrank = 2')
        with pytest.raises(ParseError, match="not allowed for kind 'dualizing'"):
            parse_session_text(text)

    def test_unknown_kind(self):
        text = GOOD.replace('"residue_field"', '"simple"')
        with pytest.raises(ParseError, match="unknown module kind 'simple'"):
            parse_session_text(text)

    def test_entry_count_mismatch(self):
        text = GOOD.replace("cols = 2", "cols = 3")
        with pytest.raises(ParseError, match="need rows\\*cols = 3 entries, got 2"):
            parse_session_text(text)

    def test_negative_rank(self):
        text = GOOD.replace("rank = 2", "rank = -1")
        with pytest.raises(ParseError, match="rank must be nonnegative"):
            parse_session_text(text)

    def test_duplicate_variable(self):
        text = GOOD.replace('["x", "y"]', '["x", "x"]')
        with pytest.raises(ParseError, match="duplicate variable name 'x'"):
            parse_session_text(text)

    def test_bad_variable_name(self):
        text = GOOD.replace('["x", "y"]', '["x", "y z"]')
        with pytest.raises(ParseError, match="bad variable name 'y z'"):
            parse_session_text(text)

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated string") as ei:
            parse_session_text('[ring]\nname = "oops\n')
        assert loc(ei) == (2, 8)

    def test_unterminated_array(self):
        with pytest.raises(ParseError, match="unterminated array"):
            parse_session_text('[ring]\nvariables = ["x"\n')

    def test_trailing_text_after_value(self):
        with pytest.raises(ParseError, match="unexpected text after value"):
            parse_session_text('[ring]\nfield = 2 3\n')

    def test_key_outside_section(self):
        with pytest.raises(ParseError, match=r"key outside any \[section\]"):
            parse_session_text('field = 2\n')

    def test_mixed_array(self):
        with pytest.raises(ParseError, match="mixed element types"):
            parse_session_text('[ring]\nvariables = ["x", 2]\n')

    def test_backslash_rejected(self):
        with pytest.raises(ParseError, match="backslash escapes"):
            parse_session_text('[ring]\nname = "a\\\\b"\n')

    def test_message_carries_location_prefix(self):
        with pytest.raises(ParseError) as ei:
            parse_session_text('[ring]\nfield = 2 3\n')
        assert str(ei.value).startswith("line 2, column ")
