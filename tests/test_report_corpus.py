"""Every command's report on the committed corpus stays byte-identical."""

from report_corpus import CORPUS_DIR, MAX_CORPUS_BYTES, build_corpus, stored_corpus


def test_reports_match_the_committed_corpus():
    built, stored = build_corpus(), stored_corpus()
    assert sorted(built) == sorted(stored)
    size = sum(path.stat().st_size for path in CORPUS_DIR.rglob("*") if path.is_file())
    assert size <= MAX_CORPUS_BYTES, f"tests/reports holds {size} bytes"
    changed = [name for name in built if built[name] != stored[name]]
    assert changed == [], "regenerate with tests/report_corpus.py only for an intended change"
