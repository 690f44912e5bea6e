"""Internal helpers and the exception hierarchy."""

import pickle

import pytest

from repro import errors
from repro._util import (
    MISSING,
    TOMBSTONE,
    chunked,
    dedupe_preserving_order,
    first,
    format_table,
    freeze,
    normalize_key,
    short_repr,
    take,
)


class TestSentinels:
    def test_distinct_and_falsy(self):
        assert MISSING is not TOMBSTONE
        assert not MISSING and not TOMBSTONE
        assert repr(TOMBSTONE) == "<TOMBSTONE>"

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(TOMBSTONE)) is TOMBSTONE
        assert pickle.loads(pickle.dumps(MISSING)) is MISSING


class TestFreeze:
    def test_mappings_are_order_insensitive(self):
        assert freeze({"a": 1, "b": 2}) == freeze({"b": 2, "a": 1})

    def test_nested_structures(self):
        frozen = freeze({"a": [1, {2}], "b": {"c": [3]}})
        hash(frozen)  # must be hashable

    def test_scalars_pass_through(self):
        assert freeze(42) == 42
        assert freeze("x") == "x"


class TestNormalizeKey:
    def test_lists_become_tuples(self):
        assert normalize_key([1, 2]) == (1, 2)

    def test_singleton_tuples_collapse(self):
        assert normalize_key((3,)) == 3
        assert normalize_key([3]) == 3

    def test_scalars_untouched(self):
        assert normalize_key("x") == "x"
        assert normalize_key((1, 2)) == (1, 2)


class TestIterHelpers:
    def test_first(self):
        assert first([7, 8]) == 7
        assert first([], default=None) is None
        with pytest.raises(ValueError):
            first([])

    def test_take(self):
        assert take(iter(range(10)), 3) == [0, 1, 2]
        assert take([], 3) == []

    def test_chunked(self):
        assert list(chunked(range(5), 2)) == [[0, 1], [2, 3], [4]]
        with pytest.raises(ValueError):
            list(chunked([], 0))

    def test_dedupe(self):
        assert dedupe_preserving_order([3, 1, 3, 2, 1]) == [3, 1, 2]
        # unhashable items dedupe via freeze
        assert dedupe_preserving_order([{"a": 1}, {"a": 1}]) == [{"a": 1}]

    def test_short_repr(self):
        assert short_repr("x" * 100, limit=10).endswith("...")
        assert short_repr(42) == "42"


class TestFormatTable:
    def test_alignment(self):
        text = format_table([[1, "long-cell"], [22, "b"]],
                            headers=["n", "s"])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[0:1])) == 1

    def test_title(self):
        text = format_table([[1]], headers=["n"], title="T")
        assert text.startswith("T\n")


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or (
                    obj is errors.ReproError
                )

    def test_dual_inheritance_for_pythonic_catching(self):
        # library errors also subclass the natural builtin, so generic
        # Python code catches them idiomatically
        assert issubclass(errors.UndefinedInputError, KeyError)
        assert issubclass(errors.NotEnumerableError, TypeError)
        assert issubclass(errors.DomainError, ValueError)
        assert issubclass(errors.PredicateSyntaxError, SyntaxError)
        assert issubclass(errors.SQLSyntaxError, SyntaxError)

    def test_messages_are_plain(self):
        exc = errors.UndefinedInputError("f", 42)
        assert str(exc) == "function 'f' is not defined at input 42"
        dup = errors.DuplicateKeyError("t", 1)
        assert "duplicate key" in str(dup)

    def test_conflict_error_carries_context(self):
        exc = errors.TransactionConflictError(9, key=1, table="t")
        assert exc.txn_id == 9 and exc.key == 1 and exc.table == "t"
        assert "write-write" in str(exc)


class TestSwitch:
    """A switch parses its text once per change and still reads the
    environment on every call."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.config import Switch

        parsed = []
        monkeypatch.delenv("REPRO_TEST_SWITCH", raising=False)
        switch = Switch(
            "REPRO_TEST_SWITCH",
            lambda raw: parsed.append(raw) or raw.upper() or "unset",
            lambda word: word != "bad",
        )
        return switch, parsed

    def test_flipping_the_environment_between_calls_takes_effect(
        self, counted, monkeypatch
    ):
        switch, parsed = counted
        assert [switch.get(), switch.get()] == ["unset", "unset"]
        monkeypatch.setenv("REPRO_TEST_SWITCH", " on ")
        assert [switch.get(), switch.get()] == ["ON", "ON"]
        monkeypatch.setenv("REPRO_TEST_SWITCH", "off")
        assert switch.get() == "OFF"
        monkeypatch.delenv("REPRO_TEST_SWITCH")
        assert switch.get() == "unset"
        assert parsed == ["", "on", "off", ""]

    def test_set_and_using_override_the_environment(
        self, counted, monkeypatch
    ):
        switch, parsed = counted
        monkeypatch.setenv("REPRO_TEST_SWITCH", "env")
        assert switch.get() == "ENV"
        with switch.using("forced"):
            assert [switch.get(), switch.get()] == ["FORCED", "FORCED"]
            with pytest.raises(ValueError):
                switch.set("bad")
            assert switch.get() == "FORCED"
        assert switch.get() == "ENV"
        switch.set("set")
        assert switch.get() == "SET"
        switch.set(None)
        assert switch.get() == "ENV"
        assert parsed == ["env", "forced", "env", "set", "env"]
