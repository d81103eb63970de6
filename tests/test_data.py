import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import data as dt
from intentcf.errors import DataError, ParameterError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadRatings:
    def test_small_fixture(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,5\nu1,i2,3\nu2,i1,4\n")
        m = dt.load_ratings(path)
        assert (m.n_users, m.n_items, m.n_entries) == (2, 2, 3)

    def test_duplicates_last_wins(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,2\nu1,i1,5\n")
        m = dt.load_ratings(path)
        assert m.n_entries == 1
        assert m.rows[0][1][0] == 5.0

    def test_tab_delimited_with_timestamp(self, tmp_path):
        path = write(tmp_path, "r.tsv", "1\t10\t4\t881250949\n1\t20\t3\t881250950\n")
        m = dt.load_ratings(path)
        assert (m.n_users, m.n_items) == (1, 2)

    def test_numeric_ids_sort_numerically(self, tmp_path):
        path = write(tmp_path, "r.csv", "2,5,1\n10,3,2\n")
        m = dt.load_ratings(path)
        assert m.user_ids == ["2", "10"]
        assert m.item_ids == ["3", "5"]

    def test_unparseable_line_reports_number(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,5\nu2,i2,bad\n")
        with pytest.raises(DataError, match="line 2"):
            dt.load_ratings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "r.csv", "\n\n")
        with pytest.raises(DataError):
            dt.load_ratings(path)

    def test_nonpositive_rating_rejected(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,i1,0\n")
        with pytest.raises(DataError, match="line 1"):
            dt.load_ratings(path)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"u1,i1,5\r\nu2,i\xff2,3\n")
        with pytest.raises(DataError, match="r.csv line 2: not UTF-8 text"):
            dt.load_ratings(str(path))

    def test_empty_id_rejected(self, tmp_path):
        # an empty id would be written to the prepared directory's id files
        # as a blank line, which reloading skips
        path = write(tmp_path, "r.tsv", "u1\ti1\t5\nu2\t\t3\t17\n")
        with pytest.raises(DataError, match="line 2: empty user or item id"):
            dt.load_ratings(path)

    def test_superscript_digit_id_sorts_as_text(self, tmp_path):
        path = write(tmp_path, "r.csv", "u1,\u00b2,5\nu1,3,2\n")
        assert dt.load_ratings(path).item_ids == ["3", "\u00b2"]

    def test_header_skip(self, tmp_path):
        path = write(tmp_path, "r.csv", "user,item,rating\nu1,i1,5\n")
        m = dt.load_ratings(path, skip_header=True)
        assert m.n_entries == 1

    @pytest.mark.skipif("INTENTCF_ML100K" not in os.environ,
                        reason="set INTENTCF_ML100K to the u.data path to check known dimensions")
    def test_ml100k_dimensions(self):
        m = dt.load_ratings(os.environ["INTENTCF_ML100K"])
        assert (m.n_users, m.n_items, m.n_entries) == (943, 1682, 100_000)


def make_matrix(rows_spec):
    """rows_spec: list of dicts item->rating, users u0..uN in order."""
    items = sorted({i for row in rows_spec for i in row}, key=dt._id_sort_key)
    imap = {i: k for k, i in enumerate(items)}
    rows = []
    for row in rows_spec:
        pairs = sorted((imap[i], r) for i, r in row.items())
        rows.append((np.array([p[0] for p in pairs], dtype=np.intp), np.array([p[1] for p in pairs], dtype=float)))
    return dt.RatingMatrix([f"u{k}" for k in range(len(rows_spec))], items, rows)


class TestFilter:
    def test_threshold(self):
        rows = [
            {f"i{j}": 3.0 for j in range(12)},
            {f"i{j}": 3.0 for j in range(9)},
            {f"i{j}": 3.0 for j in range(10)},
        ]
        m = make_matrix(rows)
        out = dt.filter_min_interactions(m, 10)
        assert out.n_users == 2
        assert all(len(idx) >= 10 for idx, _ in out.rows)

    def test_min_one_is_identity(self):
        m = make_matrix([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        out = dt.filter_min_interactions(m, 1)
        assert (out.n_users, out.n_items, out.n_entries) == (m.n_users, m.n_items, m.n_entries)

    def test_orphaned_item_dropped(self):
        # u2 is the only rater of i2; dropping u2 (1 item) orphans i2
        m = make_matrix([{"i0": 5.0, "i1": 4.0}, {"i0": 3.0, "i1": 2.0}, {"i2": 5.0}])
        out = dt.filter_min_interactions(m, 2)
        assert out.n_users == 2
        assert out.n_items == 2
        assert "i2" not in out.item_ids

    def test_empty_result_advises(self):
        m = make_matrix([{"a": 1.0}])
        with pytest.raises(DataError, match="lower the threshold"):
            dt.filter_min_interactions(m, 5)


class TestSplit:
    def test_ten_items_split_613(self):
        m = make_matrix([{f"i{j}": 4.0 for j in range(10)}])
        ds = dt.split_per_user(m, seed=1)
        assert len(ds.train.rows[0][0]) == 6
        assert len(ds.valid.rows[0][0]) == 1
        assert len(ds.test.rows[0][0]) == 3

    def test_eleven_items_rounding_rule(self):
        # floor(0.1*11)=1 validation, floor(0.3*11)=3 test, remainder 7 train
        m = make_matrix([{f"i{j}": 4.0 for j in range(11)}])
        ds = dt.split_per_user(m, seed=2)
        assert len(ds.train.rows[0][0]) == 7
        assert len(ds.valid.rows[0][0]) == 1
        assert len(ds.test.rows[0][0]) == 3

    def test_same_seed_identical(self):
        m = make_matrix([{f"i{j}": float(j % 5 + 1) for j in range(17)} for _ in range(6)])
        a = dt.split_per_user(m, seed=9)
        b = dt.split_per_user(m, seed=9)
        for u in range(6):
            assert np.array_equal(a.train.rows[u][0], b.train.rows[u][0])
            assert np.array_equal(a.test.rows[u][0], b.test.rows[u][0])

    @given(st.integers(10, 60), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n_items, seed):
        m = make_matrix([{f"i{j}": 1.0 + j % 5 for j in range(n_items)}])
        ds = dt.split_per_user(m, seed=seed)
        tr, va, te = (set(x.rows[0][0].tolist()) for x in (ds.train, ds.valid, ds.test))
        assert tr | va | te == set(m.rows[0][0].tolist())
        assert not (tr & va) and not (tr & te) and not (va & te)
        assert len(va) == int(np.floor(0.1 * n_items))
        assert len(te) == int(np.floor(0.3 * n_items))

    def test_bad_fractions(self):
        m = make_matrix([{f"i{j}": 1.0 for j in range(10)}])
        with pytest.raises(ParameterError):
            dt.split_per_user(m, 0, fractions=(0.5, 0.1, 0.3))

    @pytest.mark.parametrize("fractions", [(1.2, -0.5, 0.3), (float("nan"),) * 3])
    def test_fractions_outside_the_unit_interval(self, fractions):
        m = make_matrix([{f"i{j}": 1.0 for j in range(10)}])
        with pytest.raises(ParameterError, match="lie in"):
            dt.split_per_user(m, 0, fractions=fractions)


    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf"),
                                           pytest.param(10**400, id="10**400")])
    def test_non_finite_rating_threshold_rejected(self, threshold):
        m = make_matrix([{f"i{j}": 1.0 for j in range(10)}])
        with pytest.raises(ParameterError, match="rating_threshold"):
            dt.split_per_user(m, 0, rating_threshold=threshold)


class TestBinarize:
    def test_all_observed(self):
        m = make_matrix([{"a": 5.0, "b": 2.0}])
        x = dt.binarize(m)
        np.testing.assert_array_equal(x.dense()[0], [1.0, 1.0])

    def test_positives_only_variant(self):
        m = make_matrix([{"a": 5.0, "b": 2.0}])
        x = dt.binarize(m, min_rating=4.0)
        np.testing.assert_array_equal(x.dense()[0], [1.0, 0.0])

    def test_empty_row(self):
        m = make_matrix([{"a": 1.0}, {}])
        x = dt.binarize(m)
        assert x.rows[1].size == 0

    def test_pattern_preserved(self):
        m = make_matrix([{f"i{j}": float(j + 1) for j in range(0, 9, 2)} for _ in range(3)])
        x = dt.binarize(m)
        for u in range(3):
            assert np.array_equal(x.rows[u], m.rows[u][0])


class TestSplitSerialization:
    def test_roundtrip_identical_bytes(self, tmp_path):
        m = make_matrix([{f"i{j}": float(j % 5 + 1) for j in range(14)} for _ in range(5)])
        ds = dt.split_per_user(m, seed=3)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        dt.save_split(ds, str(d1))
        loaded = dt.load_split(str(d1))
        dt.save_split(loaded, str(d2))
        for name in ["users.txt", "items.txt", "train.tsv", "valid.tsv", "test.tsv", "manifest.txt"]:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
        assert loaded.seed == 3

    def test_missing_file_error(self, tmp_path):
        with pytest.raises(DataError, match="manifest.txt|users.txt"):
            dt.load_split(str(tmp_path))


def prepared_dir(tmp_path):
    m = make_matrix([{f"i{j}": float(j % 5 + 1) for j in range(14)} for _ in range(5)])
    out = tmp_path / "prep"
    dt.save_split(dt.split_per_user(m, seed=3), str(out))
    return out


def edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


class TestPreparedDirectoryChecks:
    @pytest.mark.parametrize("rating", ["nan", "inf", "-3", "0"])
    def test_bad_rating_names_file_and_line(self, tmp_path, rating):
        out = prepared_dir(tmp_path)

        def set_rating(lines):
            user, item, _ = lines[1].split("\t")
            lines[1] = f"{user}\t{item}\t{rating}"

        edit_lines(out / "train.tsv", set_rating)
        with pytest.raises(DataError, match="train.tsv line 2: ratings must be positive finite numbers"):
            dt.load_split(str(out))

    def test_repeated_line_names_file_and_line(self, tmp_path):
        out = prepared_dir(tmp_path)
        edit_lines(out / "train.tsv", lambda lines: lines.insert(3, lines[1]))
        with pytest.raises(DataError, match="train.tsv line 4: user 'u0' rates item '.*' twice"):
            dt.load_split(str(out))

    def test_repeated_id_names_file_and_line(self, tmp_path):
        out = prepared_dir(tmp_path)
        edit_lines(out / "items.txt", lambda lines: lines.append(lines[2]))
        with pytest.raises(DataError, match="items.txt line 15: id 'i10' is listed twice"):
            dt.load_split(str(out))

    def test_unknown_id_and_missing_field_name_file_and_line(self, tmp_path):
        out = prepared_dir(tmp_path)
        edit_lines(out / "valid.tsv", lambda lines: lines.__setitem__(0, "u0\tnowhere\t4.0"))
        with pytest.raises(DataError, match="valid.tsv line 1: unknown id 'nowhere'"):
            dt.load_split(str(out))
        edit_lines(out / "valid.tsv", lambda lines: lines.__setitem__(0, "u0\t4.0"))
        with pytest.raises(DataError, match="valid.tsv line 1: expected user, item and rating"):
            dt.load_split(str(out))


    @pytest.mark.parametrize("fname", ["users.txt", "items.txt", "train.tsv", "valid.tsv", "test.tsv",
                                       "manifest.txt"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, fname):
        out = prepared_dir(tmp_path)
        lines = (out / fname).read_bytes().split(b"\n")
        lines[1] += b"\xff"
        (out / fname).write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match=f"{fname} line 2: not UTF-8 text"):
            dt.load_split(str(out))


class TestGenreTable:
    def test_load_and_bind(self, tmp_path):
        path = write(tmp_path, "g.txt", "i0|drama,comedy\ni1|action\n")
        table = dt.GenreTable.load(path)
        m = make_matrix([{"i0": 5.0, "i1": 3.0, "i2": 2.0}])
        bound = table.for_matrix(m)
        assert bound[0] == {"drama", "comedy"}
        assert bound[1] == {"action"}
        assert bound[2] == frozenset()

    def test_empty_genre_set_rejected(self, tmp_path):
        path = write(tmp_path, "g.txt", "i0|\n")
        with pytest.raises(DataError):
            dt.GenreTable.load(path)

    def test_bad_line(self, tmp_path):
        path = write(tmp_path, "g.txt", "i0 drama\n")
        with pytest.raises(DataError, match="line 1"):
            dt.GenreTable.load(path)

    def test_non_utf8_byte_names_file_and_line(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"i0|drama\ni1|act\xc3ion\n")
        with pytest.raises(DataError, match="g.txt line 2: not UTF-8 text"):
            dt.GenreTable.load(str(path))
