"""The Tcl-subset interpreter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.tclish import TclError, TclInterp, format_list, parse_list


@pytest.fixture
def tcl():
    return TclInterp()


class TestVariables:
    def test_set_and_read(self, tcl):
        assert tcl.run("set x 42") == "42"
        assert tcl.run("set x") == "42"

    def test_dollar_substitution(self, tcl):
        tcl.run("set name world")
        tcl.run('puts "hello $name"')
        assert tcl.output == ["hello world"]

    def test_braced_varname(self, tcl):
        tcl.run("set long_name ok")
        assert tcl.run("set y ${long_name}!") == "ok!"

    def test_undefined_read_raises(self, tcl):
        with pytest.raises(TclError):
            tcl.run("puts $nope")


class TestQuotingAndSubstitution:
    def test_braces_suppress_substitution(self, tcl):
        tcl.run("set x 5")
        tcl.run("puts {$x literal}")
        assert tcl.output == ["$x literal"]

    def test_quotes_allow_substitution(self, tcl):
        tcl.run("set x 5")
        tcl.run('puts "$x interpolated"')
        assert tcl.output == ["5 interpolated"]

    def test_command_substitution(self, tcl):
        tcl.run("set x 5")
        assert tcl.run("set y [set x]") == "5"

    def test_nested_command_substitution(self, tcl):
        tcl.run("set name x; set x 6")
        assert tcl.run("set y [set [set name]]") == "6"

    def test_nested_braces(self, tcl):
        tcl.run("puts {a {b c} d}")
        assert tcl.output == ["a {b c} d"]

    def test_escapes(self, tcl):
        tcl.run(r'puts "tab\there"')
        assert tcl.output == ["tab\there"]

    def test_missing_close_brace(self, tcl):
        with pytest.raises(TclError, match="close-brace"):
            tcl.run("puts {unclosed")

    def test_missing_close_bracket(self, tcl):
        with pytest.raises(TclError, match="close-bracket"):
            tcl.run('set x "[set y"')

    def test_comments_and_semicolons(self, tcl):
        tcl.run("# full line comment\nset a 1; set b 2")
        assert tcl.run("set a") == "1"
        assert tcl.run("set b") == "2"


class TestControlFlow:
    def test_foreach(self, tcl):
        tcl.run("foreach fruit {apple pear plum} {puts $fruit}")
        assert tcl.output == ["apple", "pear", "plum"]


class TestListsAndStrings:
    def test_list_round_trip(self):
        items = ["plain", "with space", "", "{braced}"]
        assert parse_list(format_list(items)) == items

    @given(st.lists(st.text(
        alphabet=st.characters(blacklist_characters="{}\\",
                               blacklist_categories=("Cs",)), max_size=10)))
    @settings(max_examples=60, deadline=None)
    def test_property_list_round_trip(self, items):
        assert parse_list(format_list(items)) == items


class TestErrorsAndCatch:
    def test_unknown_command(self, tcl):
        with pytest.raises(TclError, match="invalid command"):
            tcl.run("frobnicate")

    def test_catch_success(self, tcl):
        assert tcl.run("catch {set x 2} result") == "0"
        assert tcl.run("set result") == "2"

    def test_catch_failure(self, tcl):
        assert tcl.run("catch {set nope} msg") == "1"
        assert "no such variable" in tcl.run("set msg")

    def test_custom_command_registration(self, tcl):
        tcl.register("greet", lambda interp, args: f"hello {args[0]}")
        assert tcl.run("greet cluster") == "hello cluster"
