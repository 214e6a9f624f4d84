import io

import pytest
from hypothesis import given, strategies as st

from softaug.errors import DataError
from softaug.textops import (
    SynonymLexicon,
    detokenize,
    is_stopword,
    load_bundled_lexicon,
    load_lexicon,
    tokenize,
)


def lex_from(text: str) -> SynonymLexicon:
    return load_lexicon(io.BytesIO(text.encode("utf-8")))


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("a good movie") == ["a", "good", "movie"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \t ") == []

    def test_preserves_internal_punctuation(self):
        assert tokenize("well-made , fun") == ["well-made", ",", "fun"]


class TestDetokenize:
    def test_join(self):
        assert detokenize(["a", "good", "movie"]) == "a good movie"

    def test_empty(self):
        assert detokenize([]) == ""

    def test_singleton(self):
        assert detokenize(["x"]) == "x"


@given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Zs", "Cc")), min_size=1)))
def test_round_trip(tokens):
    s = " ".join(tokens)
    assert detokenize(tokenize(s)) == s


class TestLoadLexicon:
    def test_direct_parse(self):
        lex = lex_from("good\tgreat,fine")
        assert lex.synonyms("good") == ["great", "fine"]

    def test_duplicate_headwords_merge(self):
        lex = lex_from("good\tgreat\ngood\tfine")
        assert lex.synonyms("good") == ["great", "fine"]

    def test_self_synonym_dropped(self):
        lex = lex_from("good\tgood,great")
        assert lex.synonyms("good") == ["great"]

    def test_comments_and_blanks_ignored(self):
        lex = lex_from("# a comment\n\ngood\tgreat\n")
        assert lex.synonyms("good") == ["great"]

    def test_missing_tab_names_line(self):
        with pytest.raises(DataError, match="line 2"):
            lex_from("good\tgreat\nbadline")

    def test_empty_synonym_field_names_line(self):
        with pytest.raises(DataError, match="line 1"):
            lex_from("good\t")

    def test_empty_synonym_in_list(self):
        with pytest.raises(DataError, match="line 1"):
            lex_from("good\tgreat,,fine")

    def test_non_utf8_file_names_it(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"good\tgreat\n\xff\tfine\n")
        with pytest.raises(DataError, match="bad.tsv: not UTF-8"):
            load_lexicon(path)


    @pytest.mark.parametrize("form", ["bytes", "path", "text"])
    def test_byte_order_mark_is_dropped(self, tmp_path, form):
        # a file saved with a UTF-8 BOM loads as the same file without one;
        # kept, the mark would hide the first headword's synonyms
        text = "good\tfine,nice\nbad\tpoor\n"
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        source = {"bytes": io.BytesIO(path.read_bytes()), "path": path, "text": io.StringIO("\ufeff" + text)}
        lex = load_lexicon(source[form])
        assert lex.synonyms("good") == ["fine", "nice"]
        assert lex._entries == lex_from(text)._entries


# a word the lexicon format stores unchanged: non-empty, lowercase, no
# whitespace (so no line break), no comma, not starting a comment
lexicon_words = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda w: w.split() == [w] and w.lower() == w and "," not in w and w[0] != "#")

lexicon_entries = st.dictionaries(
    lexicon_words, st.lists(lexicon_words, min_size=1, max_size=4, unique=True), max_size=8
).map(lambda d: {h: [s for s in syns if s != h] for h, syns in d.items()}).map(
    lambda d: {h: syns for h, syns in d.items() if syns}
)


def lexicon_text(entries: dict[str, list[str]]) -> str:
    return "\n".join(f"{h}\t{','.join(syns)}" for h, syns in entries.items())


class TestLoadLexiconProperties:
    @given(lexicon_entries, st.booleans())
    def test_round_trip(self, entries, as_text):
        text = lexicon_text(entries)
        lex = load_lexicon(io.StringIO(text) if as_text else io.BytesIO(text.encode("utf-8")))
        assert len(lex) == len(entries)
        for head, syns in entries.items():
            assert lex.synonyms(head) == syns

    @given(
        lexicon_entries,
        st.sampled_from(["no tab here", "\tsyn", "head\t", "head\ta,,b", "head\t ,a", "head\ta,"]),
        st.data(),
    )
    def test_malformed_line_is_named(self, entries, bad, data):
        lines = ["# header", ""] + lexicon_text(entries).splitlines()
        k = data.draw(st.integers(0, len(lines)))
        lines.insert(k, bad)
        with pytest.raises(DataError, match=rf"^lexicon line {k + 1}: "):
            lex_from("\n".join(lines))


class TestSynonyms:
    def test_case_insensitive(self):
        lex = lex_from("good\tgreat")
        assert lex.synonyms("Good") == ["great"]

    def test_absent_word_returns_empty(self):
        lex = lex_from("good\tgreat")
        assert lex.synonyms("zzyzx") == []

    def test_file_order_preserved(self):
        lex = lex_from("big\thuge,vast,giant")
        assert lex.synonyms("big") == ["huge", "vast", "giant"]


def test_bundled_lexicon_loads_and_excludes_self():
    lex = load_bundled_lexicon()
    assert len(lex) > 500
    for word in ("good", "terrible", "movie"):
        syns = lex.synonyms(word)
        assert syns and word not in syns


class TestStopwords:
    def test_canonical_stopword(self):
        assert is_stopword("the")

    def test_content_word(self):
        assert not is_stopword("movie")

    def test_case_insensitive(self):
        assert is_stopword("The")
