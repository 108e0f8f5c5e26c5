"""The mutation table in mutants.py cannot rot silently."""

from mutants import MUTANTS, ROOT


def test_each_mutant_old_text_occurs_once_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old and m.expect in ("killed", "timed out", "survived"), m.name
