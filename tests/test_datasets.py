import hashlib
import json
import re
from collections import Counter

import pytest

from softaug.datasets import (
    LabeledDataset,
    load_dataset,
    make_synthetic_reviews,
    make_val_split,
    subsample,
)
from softaug.errors import DataError, DomainError


class TestLoadDataset:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"text": "a", "label": "pos"}\n{"text": "b", "label": "neg"}\n'
        )
        ds = load_dataset(path)
        assert ds.n_class == 2
        assert len(ds.split("train")) == 2
        assert ds.label_names == ["pos", "neg"]

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label\na movie,pos\nanother one,neg\n")
        ds = load_dataset(path)
        assert ds.n_class == 2 and len(ds.split("train")) == 2

    def test_tsv(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("text\tlabel\na movie\tpos\nanother\tneg\n")
        ds = load_dataset(path, "tsv")
        assert ds.n_class == 2

    def test_split_column(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"text": "a", "label": "x", "split": "train"}\n'
            '{"text": "b", "label": "y", "split": "test"}\n'
        )
        ds = load_dataset(path)
        assert len(ds.split("train")) == 1 and len(ds.split("test")) == 1

    def test_label_sidecar_fixes_order_and_rejects_unknown(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "pos"}\n{"text": "b", "label": "odd"}\n')
        (tmp_path / "d.jsonl.labels.json").write_text(json.dumps(["neg", "pos"]))
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path)

    def test_labels_argument_fixes_order_over_a_sidecar(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "pos"}\n{"text": "b", "label": "neg"}\n')
        (tmp_path / "d.jsonl.labels.json").write_text(json.dumps(["pos", "neg"]))
        ds = load_dataset(path, labels=["neg", "pos", "mixed"])
        assert ds.n_class == 3 and ds.label_names == ["neg", "pos", "mixed"]
        assert ds.split("train") == [("a", 1), ("b", 0)]
        with pytest.raises(DataError, match="row 1: unknown label 'pos'"):
            load_dataset(path, labels=["neg", "other"])

    @pytest.mark.parametrize(
        "sidecar, message",
        [
            ('["pos", "neg"', "invalid JSON"),
            ('{"pos": 0, "neg": 1}', "JSON list"),
            ('["pos", 1]', "not a string"),
            ('["pos", "pos", "neg"]', "duplicate"),
        ],
    )
    def test_label_sidecar_rejected(self, tmp_path, sidecar, message):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "pos"}\n{"text": "b", "label": "neg"}\n')
        (tmp_path / "d.jsonl.labels.json").write_text(sidecar)
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize(
        "labels, message",
        [
            (["pos", "neg", "pos"], r"^labels: duplicate label names \['pos'\]$"),
            (["pos", 1], "^labels: label name 1 is not a string$"),
        ],
        ids=["duplicate", "not-a-string"],
    )
    def test_labels_argument_rejected_as_a_sidecar_is(self, tmp_path, labels, message):
        # unchecked, a repeated name left a class index past n_class
        path = tmp_path / "d.csv"
        path.write_text("text,label\na,pos\nb,neg\nc,pos\n")
        with pytest.raises(DataError, match=message):
            load_dataset(path, labels=labels)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "x"}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("line", ["5", '"text label"', '["text", "label"]'])
    def test_jsonl_line_not_an_object_names_line(self, tmp_path, line):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "x"}\n' + line + "\n")
        with pytest.raises(DataError, match="line 2: expected a JSON object"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ('{"text": null, "label": "a"}', "text None is not a string"),
            ('{"text": 5, "label": "a"}', "text 5 is not a string"),
            ('{"text": ["a"], "label": "a"}', "text ['a'] is not a string"),
            ('{"text": "a", "label": null}', "label None is not a string or an integer"),
            ('{"text": "a", "label": true}', "label True is not a string or an integer"),
            ('{"text": "a", "label": 1.0}', "label 1.0 is not a string or an integer"),
            ('{"text": "a", "label": {"id": 1}}', "label {'id': 1} is not a string or an integer"),
        ],
    )
    def test_jsonl_wrong_value_type_names_line(self, tmp_path, row, message):
        # these used to load through str(): null text as "None", null label as a class "None"
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "x"}\n' + row + "\n")
        with pytest.raises(DataError, match=re.escape(f"d.jsonl line 2: {message}")):
            load_dataset(path)

    def test_jsonl_lone_surrogate_names_line(self, tmp_path):
        # json.loads accepts the escape, but the text cannot be encoded to UTF-8
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "x"}\n{"text": "bad \\ud800 film", "label": "x"}\n')
        with pytest.raises(DataError, match=re.escape("d.jsonl line 2: text has a lone surrogate at index 4")):
            load_dataset(path)

    def test_jsonl_integer_labels(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": 1}\n{"text": "b", "label": 0}\n{"text": "c", "label": "1"}\n')
        ds = load_dataset(path)
        assert ds.label_names == ["1", "0"]
        assert ds.split("train") == [("a", 0), ("b", 1), ("c", 0)]

    @pytest.mark.parametrize(
        "name, content",
        [("d.csv", b"text,label\ncaf\xe9,x\n"), ("d.jsonl", b'{"text": "caf\xe9", "label": "x"}\n')],
        ids=["csv", "jsonl"],
    )
    def test_non_utf8_file_names_it(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)  # Latin-1 e-acute
        with pytest.raises(DataError, match=f"{name}: not UTF-8"):
            load_dataset(path)

    def test_non_utf8_label_sidecar_names_it(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "pos"}\n')
        (tmp_path / "d.jsonl.labels.json").write_bytes(b'["pos", "\xff"]')
        with pytest.raises(DataError, match="d.jsonl.labels.json: not UTF-8"):
            load_dataset(path)

    @pytest.mark.parametrize("name, content", [
        ("d.csv", "text,label,split\na movie,pos,train\nanother one,neg,test\n"),
        ("d.tsv", "text\tlabel\na movie\tpos\nanother one\tneg\n"),
        ("d.jsonl", '{"text": "a", "label": "pos"}\n{"text": "b", "label": "neg", "split": "test"}\n'),
    ], ids=["csv", "tsv", "jsonl"])
    def test_byte_order_mark_is_accepted(self, tmp_path, name, content):
        # a file saved with a UTF-8 BOM loads as the same file without one
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        (tmp_path / "plain" / name).write_bytes(content.encode("utf-8"))
        (tmp_path / "bom" / name).write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
        assert load_dataset(tmp_path / "bom" / name) == load_dataset(tmp_path / "plain" / name)

    def test_byte_order_mark_in_label_sidecar_is_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": "pos"}\n{"text": "b", "label": "neg"}\n')
        (tmp_path / "d.jsonl.labels.json").write_bytes(b"\xef\xbb\xbf" + json.dumps(["neg", "pos"]).encode())
        ds = load_dataset(path)
        assert ds.label_names == ["neg", "pos"]
        assert ds.split("train") == [("a", 1), ("b", 0)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DataError):
            load_dataset(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "d.xyz"
        path.write_text("x")
        with pytest.raises(DataError):
            load_dataset(path)


def balanced_dataset(n_per_class=500, n_class=2):
    train = [
        (f"text number {i} class {c}", c) for c in range(n_class) for i in range(n_per_class)
    ]
    return LabeledDataset("toy", n_class, {"train": train})


class TestSubsample:
    def test_balanced_proportional_quota(self):
        ds = balanced_dataset(500)
        sub = subsample(ds, 100, seed=0)
        counts = Counter(y for _, y in sub.split("train"))
        assert counts[0] == 50 and counts[1] == 50

    def test_full_sample_is_same_multiset(self):
        ds = balanced_dataset(20)
        sub = subsample(ds, 40, seed=1)
        assert sorted(sub.split("train")) == sorted(ds.split("train"))

    def test_largest_remainder_70_30(self):
        train = [(f"a{i}", 0) for i in range(70)] + [(f"b{i}", 1) for i in range(30)]
        ds = LabeledDataset("toy", 2, {"train": train})
        counts = Counter(y for _, y in subsample(ds, 10, seed=2).split("train"))
        assert counts[0] == 7 and counts[1] == 3

    def test_every_class_represented(self):
        train = [(f"a{i}", 0) for i in range(97)] + [("b0", 1), ("b1", 1), ("b2", 1)]
        ds = LabeledDataset("toy", 2, {"train": train})
        counts = Counter(y for _, y in subsample(ds, 10, seed=3).split("train"))
        assert counts[1] >= 1

    def test_deterministic(self):
        ds = balanced_dataset(100)
        assert subsample(ds, 30, seed=5).split("train") == subsample(ds, 30, seed=5).split("train")

    def test_cannot_stratify(self):
        ds = balanced_dataset(10, n_class=3)
        with pytest.raises(DomainError, match="stratify"):
            subsample(ds, 2, seed=0)

    def test_passthrough_other_splits(self):
        ds = balanced_dataset(100)
        ds.splits["test"] = [("t", 0)]
        assert subsample(ds, 10, seed=0).split("test") == [("t", 0)]


class TestMakeValSplit:
    def test_balanced_20_percent(self):
        train = balanced_dataset(50).split("train")  # 100 examples
        tr, val = make_val_split(train, 0.2, seed=0)
        assert len(tr) == 80 and len(val) == 20
        counts = Counter(y for _, y in val)
        assert counts[0] == 10 and counts[1] == 10

    def test_tiny_classes_get_one_each(self):
        train = [(f"a{i}", 0) for i in range(5)] + [(f"b{i}", 1) for i in range(5)]
        tr, val = make_val_split(train, 0.2, seed=1)
        counts = Counter(y for _, y in val)
        assert counts[0] == 1 and counts[1] == 1

    def test_deterministic(self):
        train = balanced_dataset(50).split("train")
        assert make_val_split(train, 0.2, seed=7) == make_val_split(train, 0.2, seed=7)

    def test_infeasible(self):
        with pytest.raises(DomainError):
            make_val_split([("a", 0)], 0.5, seed=0)

    def test_present_class_floor_golden(self):
        # round(0.2 * 10) = 2 < 3 classes present, so n_val rises to 3, one
        # per class; which ones pins the stratified draw's rng stream
        train = (
            [(f"a{i}", 0) for i in range(6)]
            + [(f"b{i}", 1) for i in range(2)]
            + [(f"c{i}", 2) for i in range(2)]
        )
        tr, val = make_val_split(train, 0.2, seed=4)
        assert val == [("a1", 0), ("b1", 1), ("c0", 2)]
        assert tr == [ex for ex in train if ex not in val]


class TestSyntheticReviews:
    def test_shape_and_balance(self):
        ds = make_synthetic_reviews()
        assert ds.n_class == 2
        assert len(ds.split("train")) + len(ds.split("test")) >= 2000
        counts = Counter(y for _, y in ds.split("train"))
        assert counts[0] == counts[1]

    def test_deterministic(self):
        a = make_synthetic_reviews(seed=3)
        b = make_synthetic_reviews(seed=3)
        assert a.splits == b.splits

    # sha256 of json.dumps([train, test]), recorded when the sentences were
    # drawn with rng.choice and rng.sample
    GOLDEN = {
        7: "979ac4801c9ee633df3cdf14b56bad3eb2a28358a1d74ff9aa53d959eec1df42",
        3: "b6c0b17c407573d5ece977d22f1822edd0c5f39561c6e87edb76cebf38e8ffc9",
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden(self, seed):
        ds = make_synthetic_reviews(seed)
        digest = hashlib.sha256(json.dumps([ds.split("train"), ds.split("test")]).encode()).hexdigest()
        assert digest == self.GOLDEN[seed]
