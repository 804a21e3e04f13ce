"""Market document parsing, serialization, and table rendering."""

import random

import pytest

from conftest import random_market_instance
from manymatch import Matching, parse_market
from manymatch.fileformat import ParseError, matching_to_dict, render_matching, serialize_market
from manymatch.markets import bundled

GOOD_DOC = """\
firms: f1 f2
workers: w1 w2 w3
pref f1: w1 w2 | w1 | w2
pref f2: w3
pref w1: f1 | f2
pref w2: f2
pref w3: f1
"""


class TestParse:
    def test_parses_and_orders_alternatives(self):
        inst = parse_market(GOOD_DOC)
        assert inst.firm_names == ("f1", "f2")
        f1 = inst.profile[inst.agent_id("f1")]
        assert f1.ranked == (0b11, 0b01, 0b10)

    def test_comments_blank_lines_and_spacing_tolerated(self):
        noisy = """
        # a market
        firms:   f1    f2
        workers: w1 w2 w3   # trailing comment

        pref  f1 :  w2   w1 | w1 | w2
        pref f2: w3
        pref w1: f1 | f2
        pref w2: f2
        pref w3: f1
        """
        inst = parse_market(noisy)
        f1 = inst.profile[inst.agent_id("f1")]
        assert f1.ranked[0] == 0b11  # member order inside a set is free

    def test_trailing_comment_after_last_alternative(self):
        doc = GOOD_DOC.replace("pref f1: w1 w2 | w1 | w2", "pref f1: w1 w2 | w1 | w2  # | w3")
        assert parse_market(doc) == parse_market(GOOD_DOC)

    def test_hash_inside_a_name_starts_a_comment(self):
        # 'f#2' declares only 'f', so f2's pref line names an undeclared agent
        doc = GOOD_DOC.replace("firms: f1 f2", "firms: f1 f#2")
        with pytest.raises(ParseError, match="undeclared agent 'f2'"):
            parse_market(doc)

    def test_empty_preference_line_allowed(self):
        doc = GOOD_DOC.replace("pref f2: w3", "pref f2:")
        inst = parse_market(doc)
        assert inst.profile[inst.agent_id("f2")].ranked == ()

    def test_duplicate_alternative_rejected(self):
        doc = GOOD_DOC.replace("pref f1: w1 w2 | w1 | w2", "pref f1: w1 w2 | w1 w2")
        with pytest.raises(ParseError, match="duplicate alternative"):
            parse_market(doc)

    def test_reordered_duplicate_alternative_rejected(self):
        doc = GOOD_DOC.replace("pref f1: w1 w2 | w1 | w2", "pref f1: w1 w2 | w2 w1")
        with pytest.raises(ParseError, match="duplicate alternative"):
            parse_market(doc)

    def test_unknown_member_name_rejected(self):
        doc = GOOD_DOC.replace("pref f2: w3", "pref f2: w9")
        with pytest.raises(ParseError, match="unknown worker name 'w9'"):
            parse_market(doc)

    def test_member_from_own_side_rejected(self):
        doc = GOOD_DOC.replace("pref f2: w3", "pref f2: f1")
        with pytest.raises(ParseError, match="unknown worker name 'f1'"):
            parse_market(doc)

    def test_explicit_empty_set_rejected(self):
        doc = GOOD_DOC.replace("pref f1: w1 w2 | w1 | w2", "pref f1: w1 w2 | | w2")
        with pytest.raises(ParseError, match="empty set"):
            parse_market(doc)

    def test_trailing_separator_rejected(self):
        doc = GOOD_DOC.replace("pref f2: w3", "pref f2: w3 |")
        with pytest.raises(ParseError, match="empty"):
            parse_market(doc)

    def test_repeated_member_in_alternative_rejected(self):
        doc = GOOD_DOC.replace("pref f2: w3", "pref f2: w3 w3")
        with pytest.raises(ParseError, match="repeated"):
            parse_market(doc)

    def test_missing_pref_line_rejected(self):
        doc = GOOD_DOC.replace("pref w3: f1\n", "")
        with pytest.raises(ParseError, match="missing pref line for agent 'w3'"):
            parse_market(doc)

    def test_duplicate_pref_line_rejected(self):
        doc = GOOD_DOC + "pref w3: f2\n"
        with pytest.raises(ParseError, match="duplicate pref line"):
            parse_market(doc)

    def test_undeclared_agent_rejected(self):
        doc = GOOD_DOC + "pref w9: f1\n"
        with pytest.raises(ParseError, match="undeclared agent 'w9'"):
            parse_market(doc)

    def test_missing_headers_rejected(self):
        with pytest.raises(ParseError, match="missing 'firms:'"):
            parse_market("workers: w1\npref w1: \n")

    def test_duplicate_name_on_one_side_rejected(self):
        doc = GOOD_DOC.replace("firms: f1 f2", "firms: f1 f1")
        with pytest.raises(ParseError, match="duplicate firm name"):
            parse_market(doc)

    def test_name_on_both_sides_rejected(self):
        doc = GOOD_DOC.replace("workers: w1 w2 w3", "workers: f1 w2 w3")
        with pytest.raises(ParseError, match="both sides"):
            parse_market(doc)

    def test_unrecognized_line_rejected(self):
        with pytest.raises(ParseError, match="unrecognized line"):
            parse_market("hello\n" + GOOD_DOC)

    @pytest.mark.parametrize("doc, message", [
        ("firms: f1\nfirms: f2\nworkers: w1\n", "line 2: duplicate 'firms:' line"),
        ("firms: f1\nworkers: w1\npref f1 w1\n",
         "line 3: expected ':' after the agent name in a pref line"),
        ("firms: f1\nworkers: w1\npref f1 w1: w1\n",
         "line 3: expected exactly one agent name in a pref line"),
        ("firms:\nworkers: w1\npref w1:\n", "each side needs at least one agent"),
    ], ids=["duplicate-header", "pref-without-colon", "pref-with-two-names", "empty-side"])
    def test_malformed_line_messages(self, doc, message):
        with pytest.raises(ParseError) as exc_info:
            parse_market(doc)
        assert str(exc_info.value) == message

    def test_side_size_cap(self):
        names = " ".join(f"w{j}" for j in range(33))
        doc = f"firms: f1\nworkers: {names}\n"
        with pytest.raises(ParseError, match="at most 32"):
            parse_market(doc)

    def test_errors_carry_line_numbers(self):
        doc = GOOD_DOC.replace("pref f2: w3", "pref f2: w9")
        with pytest.raises(ParseError) as exc_info:
            parse_market(doc)
        assert exc_info.value.line == 4
        assert exc_info.value.column == GOOD_DOC.splitlines()[3].replace("w3", "w9").find("w9") + 1

    @pytest.mark.parametrize("doc, line, column", [
        # the unknown member also occurs inside the owner's name
        ("firms: fw\nworkers: x\npref fw: w\npref x: fw\n", 3, 10),
        # the undeclared owner also occurs inside the keyword
        ("firms: f1\nworkers: w1\npref re: f1\n", 3, 6),
        # indented line, member after a separator
        ("firms: f1\nworkers: w1 w2\n  pref f1: w2 |  w1 w9\n", 3, 21),
    ])
    def test_error_column_is_the_token_offset(self, doc, line, column):
        with pytest.raises(ParseError) as exc_info:
            parse_market(doc)
        assert (exc_info.value.line, exc_info.value.column) == (line, column)

    @pytest.mark.parametrize("doc, line, column, name", [
        # would otherwise fail later as a pref line for undeclared agent 'a'
        ("firms: a:b\nworkers: w\npref a:b: w\npref w: a:b\n", 1, 8, "a:b"),
        # would otherwise be accepted but could never appear in a pref line
        ("firms: f1\n  workers: w1 f|1\npref f1:\npref w1:\n", 2, 15, "f|1"),
        # would otherwise render f1's match to it like f1 being unmatched
        ("firms: f1 f2\nworkers: ∅ w2\npref f1: ∅\npref f2:\npref ∅: f1\npref w2:\n",
         2, 10, "∅"),
    ])
    def test_declared_name_with_separator_rejected(self, doc, line, column, name):
        with pytest.raises(ParseError, match="may not contain") as exc_info:
            parse_market(doc)
        assert (exc_info.value.line, exc_info.value.column) == (line, column)
        assert repr(name) in str(exc_info.value)


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        for seed in range(50):
            inst = random_market_instance(random.Random(seed))
            assert parse_market(serialize_market(inst)) == inst

    def test_parse_then_serialize_canonicalizes(self):
        noisy = """
        workers: w1 w2 w3
        firms: f1 f2
        pref w2: f2
        pref f1:  w2 w1 | w1 | w2
        pref w1: f1 | f2
        pref f2: w3
        pref w3: f1
        """
        canon = serialize_market(parse_market(noisy))
        assert canon == (
            "firms: f1 f2\n"
            "workers: w1 w2 w3\n"
            "pref f1: w1 w2 | w1 | w2\n"
            "pref f2: w3\n"
            "pref w1: f1 | f2\n"
            "pref w2: f2\n"
            "pref w3: f1\n"
        )
        assert serialize_market(parse_market(canon)) == canon

    def test_bundled_market_round_trips(self):
        inst = bundled("manipulation-demo")
        assert parse_market(serialize_market(inst)) == inst


class TestRender:
    def test_demo_firm_optimal_table(self):
        inst = bundled("manipulation-demo")
        mu = Matching.from_pairs([(0, 1), (0, 2), (1, 0), (2, 3)])
        assert render_matching(matching_to_dict(mu, inst)) == "f1     f2  f3\nw2 w3  w1  w4"

    def test_empty_matching_renders_empty_cells(self):
        inst = bundled("manipulation-demo")
        out = render_matching(matching_to_dict(Matching.empty(), inst))
        header, row = out.splitlines()
        assert header.split() == ["f1", "f2", "f3"]
        assert row.split() == ["∅", "∅", "∅"]

    def test_unmatched_firm_cell(self):
        inst = parse_market(GOOD_DOC)
        mu = Matching.from_pairs([(1, 2)])
        assert render_matching(matching_to_dict(mu, inst)) == "f1  f2\n∅   w3"
