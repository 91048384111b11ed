import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfieboost.data import Dataset, gen_realizable, load_csv, save_csv
from selfieboost.errors import (
    DatasetParseError,
    DegenerateTeacherError,
    EmptyDatasetError,
)
from selfieboost import data
from selfieboost.nnet import NetworkArchitecture, forward, forward_batch, init_network
from selfieboost.sampling import SplitMix64, derive_seed


@pytest.fixture(scope="module")
def generated():
    return gen_realizable(150, 4, NetworkArchitecture(4, (4,)), 0.1, 11)


class TestGenRealizable:
    def test_teacher_labels_its_own_data(self, generated):
        dataset, teacher = generated
        margins = dataset.labels * forward_batch(teacher, dataset.features)
        assert np.all(margins > 0.0)

    def test_min_margin_at_least_one(self, generated):
        dataset, teacher = generated
        margins = dataset.labels * forward_batch(teacher, dataset.features)
        assert float(np.min(margins)) >= 1.0 - 1e-12
        assert dataset.provenance.margin_floor == pytest.approx(float(np.min(margins)))

    def test_deterministic(self, generated):
        dataset, teacher = generated
        again, teacher2 = gen_realizable(150, 4, NetworkArchitecture(4, (4,)), 0.1, 11)
        np.testing.assert_array_equal(dataset.features, again.features)
        np.testing.assert_array_equal(dataset.labels, again.labels)
        for a, b in zip(teacher.weights, teacher2.weights):
            np.testing.assert_array_equal(a, b)

    def test_rejection_metadata(self, generated):
        dataset, _ = generated
        assert dataset.provenance.rejected >= 0

    def test_impossible_dead_zone_raises(self):
        with pytest.raises(DegenerateTeacherError, match="exceeded 5000 attempts"):
            gen_realizable(50, 3, NetworkArchitecture(3, (2,)), 1e6, 0)

    @pytest.mark.parametrize("attempt", [1, 2, 99, 100, 101, 1024])
    def test_cap_counts_attempts(self, monkeypatch, attempt):
        # blocks are scored whole, yet the cap counts attempts: only row
        # ``attempt - 1`` of the first block escapes the dead zone
        first = []

        def one_hit(net, x):
            scores = forward_batch(net, x)
            if not first:
                first.append(x.shape[0])
                scores[:] = 0.0
                scores[attempt - 1] = 2e6
            return scores

        monkeypatch.setattr(data, "forward_batch", one_hit)
        arch = NetworkArchitecture(3, (2,))
        if attempt > 100:  # m=1: the cap is 100 attempts
            with pytest.raises(DegenerateTeacherError, match="exceeded 100 attempts"):
                gen_realizable(1, 3, arch, 1e6, 0)
        else:
            dataset, _ = gen_realizable(1, 3, arch, 1e6, 0)
            assert dataset.provenance.rejected == attempt - 1
            assert dataset.labels.tolist() == [1.0]
        assert first == [1024]

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="m must be >= 1"):  # realize would index an empty array
            gen_realizable(0, 3, NetworkArchitecture(3, (2,)), 0.1, 0)
        with pytest.raises(ValueError, match="teacher input_dim 1 != d 0"):  # no architecture has d < 1
            gen_realizable(5, 0, NetworkArchitecture(1, (2,)), 0.1, 0)
        with pytest.raises(ValueError):
            gen_realizable(5, 3, NetworkArchitecture(3, (2,)), 0.0, 0)
        with pytest.raises(ValueError):
            gen_realizable(5, 3, NetworkArchitecture(4, (2,)), 0.1, 0)  # dim mismatch


def realize_per_attempt(m, arch, tau, seed):
    """The sampler one attempt at a time: one ``normal_block(d)`` and one
    scalar score per attempt, kept when the score is outside ``(-tau, tau)``."""
    teacher = init_network(arch, derive_seed(seed, 0), 1.0)
    rng = SplitMix64(derive_seed(seed, 1))
    features, labels, attempts = [], [], 0
    while len(features) < m:
        attempts += 1
        x = rng.normal_block(arch.input_dim)
        raw = forward(teacher, x)
        if abs(raw) >= tau:
            features.append(x)
            labels.append(1.0 if raw > 0 else -1.0)
    teacher.weights[-1] *= 1.0 / tau
    teacher.biases[-1] *= 1.0 / tau
    return np.array(features), np.array(labels), attempts - m, teacher


@pytest.mark.parametrize("m, arch, tau, block_rows", [
    (1500, NetworkArchitecture(4, (4,)), 0.1, 1024),
    # 65536 // 130 normals: blocks of 504 rows
    (600, NetworkArchitecture(130, (70,), "relu"), 0.4, 504),
], ids=["tanh-d4", "relu-d130"])
def test_block_draws_match_per_attempt_draws(m, arch, tau, block_rows):
    dataset, teacher = gen_realizable(m, arch.input_dim, arch, tau, 7)
    features, labels, rejected, expected = realize_per_attempt(m, arch, tau, 7)
    assert m + rejected > 2 * block_rows  # the attempts span at least three draw blocks
    np.testing.assert_array_equal(dataset.features, features)
    np.testing.assert_array_equal(dataset.labels, labels)
    assert dataset.provenance.rejected == rejected
    for a, b in zip(teacher.weights + teacher.biases, expected.weights + expected.biases):
        np.testing.assert_array_equal(a, b)


class TestDatasetType:
    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="labels length"):
            Dataset(np.zeros((2, 2)), np.ones(3))

    def test_rejects_empty(self):
        with pytest.raises(EmptyDatasetError):
            Dataset(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_nonfinite_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]))

    def test_subset(self, generated):
        dataset, _ = generated
        sub = dataset.subset(np.array([3, 1, 3]))
        assert sub.m == 3
        np.testing.assert_array_equal(sub.features[0], dataset.features[3])


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, generated, tmp_path):
        dataset, _ = generated
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)

    def test_header_and_line_endings(self, generated, tmp_path):
        dataset, _ = generated
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        raw = path.read_bytes()
        assert raw.startswith(b"f0,f1,f2,f3,label\n")
        assert b"\r" not in raw

    def test_zero_label_is_parse_error_naming_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.5,1\n2.5,0\n")
        with pytest.raises(DatasetParseError, match="row 3"):
            load_csv(path)

    def test_ragged_row_is_parse_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label\n1.0,2.0,1\n1.0,1\n")
        with pytest.raises(DatasetParseError, match="row 3"):
            load_csv(path)

    def test_empty_file_is_empty_dataset_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)

    def test_header_only_is_empty_dataset_error(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)

    def test_bad_header_is_parse_error(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("x0,x1,y\n1.0,2.0,1\n")
        with pytest.raises(DatasetParseError):
            load_csv(path)

    def test_non_numeric_field_is_parse_error(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("f0,label\nabc,1\n")
        with pytest.raises(DatasetParseError, match="row 2"):
            load_csv(path)


# Pieces of dataset files.  numpy's reader and ``float()`` agree on every
# finite ``repr``; ``float()`` alone reads underscores and Arabic-Indic
# digits; the bad values are non-finite, not numbers, or bad labels.
EDGE_VALUES = ["-0.0", "5e-324", "2.2250738585072014e-308", "1e308", "1.7976931348623157e+308"]
FLOAT_ONLY = ["1_0", "-2_5.0_1", "\u0661\u0662"]
BAD_VALUES = ["nan", "inf", "-inf", "1e309", "", "x", "0x10", "0", "2"]
PADS = ["", "", " ", "\t", "\xa0"]
BLANKS = [""] * 8 + [" ", "\t"]  # a whitespace-only line is a row with one field
LABELS = ["1", "-1", "1.0", "-1.0", "+1"]


@st.composite
def csv_texts(draw):
    d = draw(st.integers(1, 3))
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(EDGE_VALUES)
    rows = draw(st.lists(
        st.builds(lambda f, y: [*f, y], st.lists(value, min_size=d, max_size=d), st.sampled_from(LABELS)),
        max_size=4,
    ))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, len(row) - 1))
        action = draw(st.sampled_from(["float-only"] * 3 + ["bad", "drop", "extra"]))
        if action == "float-only":
            row[col] = draw(st.sampled_from(FLOAT_ONLY))
        elif action == "bad":
            row[col] = draw(st.sampled_from(BAD_VALUES))
        elif action == "drop":
            del row[col]
        else:
            row.insert(col, "1.5")
    header = ",".join([f"f{j}" for j in range(d)] + ["label"])
    header = draw(st.sampled_from([header] * 4 + [header + " ", header.replace("label", "y"), ""]))
    lines = [*draw(st.lists(st.sampled_from(BLANKS), max_size=2)), header]
    for row in rows:
        lines.append(",".join(draw(st.sampled_from(PADS)) + v + draw(st.sampled_from(PADS)) for v in row))
        lines += draw(st.lists(st.sampled_from(BLANKS), max_size=1))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) and text else text


def parsed(parse, path):
    try:
        dataset = parse(path)
    except Exception as exc:
        return type(exc), str(exc)
    return dataset.features.tobytes(), dataset.labels.tobytes()


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
@example(text="")
@example(text="f0,label\n")
@example(text="\n \n")
@example(text="f0,label\ninf,1\n\nabc,1\n")  # the malformed row is reported first
@example(text="f0,label\nnan,1\n1.0,1\n")
@example(text="f0,f1,label\r\n\r\n 1_0 ,\u0661,-1\r\n")
def test_load_csv_matches_the_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("parity") / "d.csv"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parsed(load_csv, path) == parsed(data._parse_rows, path)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_load_csv_peak_memory_is_the_table_plus_16_mib(tmp_path):
    # the row parser held every line as a Python string: about 4x the table.
    # VmHWM is the peak RSS of the child's own address space; its ru_maxrss
    # would start at this test process's RSS when it was spawned
    m, d = 200_000, 10
    rows = np.random.default_rng(0).standard_normal((1000, d)).tolist()
    block = "".join(",".join(map(repr, row)) + ",1\n" for row in rows)
    path = tmp_path / "big.csv"
    path.write_text(",".join(f"f{j}" for j in range(d)) + ",label\n" + block * (m // 1000))
    script = (
        "import sys\n"
        "from selfieboost.data import load_csv\n"
        "def peak_kib():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "before = peak_kib()\n"
        "assert load_csv(sys.argv[1]).m == int(sys.argv[2])\n"
        "print(peak_kib() - before)\n"
    )
    src = os.path.dirname(os.path.dirname(data.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(m)],
                          capture_output=True, text=True, env=env, check=True)
    assert int(proc.stdout) * 1024 <= m * (d + 1) * 8 + 16 * 2**20
