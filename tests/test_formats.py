import hashlib
import json

import pytest

from hexaudit.formats import (
    PGLS_MAGIC,
    dump_lineset,
    dumps_report,
    input_digest,
    load_lineset,
    report_document,
)
from hexaudit.lineset import LineSet
from hexaudit.pg import projective_space


class TestLinesetRoundTrip:
    def test_h2_round_trip_byte_identical(self, h2):
        text = dump_lineset(h2)
        again = load_lineset(text)
        assert again == h2
        assert dump_lineset(again) == text

    def test_header_fields(self, h2):
        lines = dump_lineset(h2).splitlines()
        assert lines[0] == PGLS_MAGIC
        assert lines[1] == "n 6"
        assert lines[2] == "q 2"

    def test_extension_field_modulus(self):
        space = projective_space(2, 4)
        ls = LineSet(space, [((1, 0, 0), (0, 1, 0))])
        text = dump_lineset(ls)
        assert "modulus 1 1 1" in text
        assert load_lineset(text) == ls


class TestLoadErrors:
    def test_missing_magic(self):
        with pytest.raises(ValueError):
            load_lineset("n 3\nq 2\n1 0 0 0, 0 1 0 0\n")

    def test_missing_header(self):
        with pytest.raises(ValueError):
            load_lineset("PGLS 1\nn 3\n1 0 0 0, 0 1 0 0\n")

    def test_unknown_header_field(self):
        with pytest.raises(ValueError):
            load_lineset("PGLS 1\nn 3\nq 2\nfoo bar\n1 0 0 0, 0 1 0 0\n")

    def test_repeated_header_field(self):
        with pytest.raises(ValueError, match="repeated header field 'n'"):
            load_lineset("PGLS 1\nn 3\nn 4\nq 2\n1 0 0 0 0, 0 1 0 0 0\n")

    def test_wrong_modulus(self):
        with pytest.raises(ValueError):
            load_lineset("PGLS 1\nn 2\nq 4\nmodulus 1 0 1\n1 0 0, 0 1 0\n")

    def test_modulus_on_prime_field(self):
        with pytest.raises(ValueError):
            load_lineset("PGLS 1\nn 3\nq 3\nmodulus 1 0 1\n1 0 0 0, 0 1 0 0\n")

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            load_lineset("PGLS 1\nn 3\nq 2\n1 0 0 2, 0 1 0 0\n")

    def test_wrong_width(self):
        with pytest.raises(ValueError):
            load_lineset("PGLS 1\nn 3\nq 2\n1 0 0, 0 1 0\n")

    def test_malformed_body(self):
        with pytest.raises(ValueError):
            load_lineset("PGLS 1\nn 3\nq 2\n1 0 0 0 0 1 0 0\n")

    @pytest.mark.parametrize("token", ["+1", "0_1", "\u0661"])
    def test_coordinate_not_ascii_digits(self, token):
        """int() takes each of these as 1; a PGLS coordinate is ASCII digits."""
        with pytest.raises(ValueError, match="coordinates must be ASCII decimal digits"):
            load_lineset(f"PGLS 1\nn 2\nq 3\n{token} 0 0, 0 1 0\n")


class TestReports:
    def test_envelope(self):
        doc = report_document("audit", {"x": 1}, source_text="hello")
        assert doc["tool"] == "hexaudit"
        assert doc["kind"] == "audit"
        assert doc["input_digest"] == input_digest("hello")
        assert doc["x"] == 1

    def test_digest_is_sha256(self):
        assert (
            input_digest("")
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        text = "PGLS 1\nn 6\nq 3\n# π_x, Ω, ℓ ∈ H(q)\r\n\u00e9\U0001d53d\n"
        assert input_digest(text) == hashlib.sha256(text.encode()).hexdigest()

    def test_dumps_is_deterministic_json(self):
        doc = report_document("audit", {"b": 2, "a": 1})
        text = dumps_report(doc)
        assert text == dumps_report(doc)
        assert json.loads(text)["a"] == 1
        assert text.endswith("\n")
