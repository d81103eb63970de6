import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentcf import data as dt
from intentcf.errors import DataError, ParameterError

from cell_fixtures import rating_matrix


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
        assert m.row(0)[1][0] == 5.0

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

    def test_first_line_with_an_unwritable_id_is_named(self, tmp_path):
        # a tab inside an id would split its line of a prepared train.tsv
        path = write(tmp_path, "r.csv", "u1,i1,5\nu2,i\t2,3\nu\t3,i3,4\n")
        with pytest.raises(DataError, match=r"^line 2: id 'i\\t2' has a tab, a line break or surrounding"):
            dt.load_ratings(path, delimiter=",")

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


class TestIds:
    @pytest.mark.parametrize("bad", ["u\t1", "u\n1", "u\r1", " u1", "u1\t"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_triple_with_an_unwritable_id_rejected(self, bad, side):
        triple = ["u2", "i2", 3.0]
        triple[side] = bad
        with pytest.raises(DataError, match=r"^triple \(.*\): id .* has a tab, a line break or surrounding"):
            dt.matrix_from_triples([("u1", "i1", 5.0), tuple(triple)])

    def test_empty_triple_id_rejected(self):
        # save_split would write it as a blank line of users.txt, which
        # load_split skips
        with pytest.raises(DataError, match=r"^triple \('', 'i1'\): empty user or item id$"):
            dt.matrix_from_triples([("", "i1", 5.0)])


def make_matrix(rows_spec):
    """rows_spec: list of dicts item->rating, users u0..uN in order."""
    items = sorted({i for row in rows_spec for i in row}, key=dt._id_sort_key)
    imap = {i: k for k, i in enumerate(items)}
    rows = []
    for row in rows_spec:
        pairs = sorted((imap[i], r) for i, r in row.items())
        rows.append((np.array([p[0] for p in pairs], dtype=np.intp), np.array([p[1] for p in pairs], dtype=float)))
    return rating_matrix([f"u{k}" for k in range(len(rows_spec))], items, rows)


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
        assert all(len(out.row(u)[0]) >= 10 for u in range(out.n_users))

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
        assert len(ds.train.row(0)[0]) == 6
        assert len(ds.valid.row(0)[0]) == 1
        assert len(ds.test.row(0)[0]) == 3

    def test_eleven_items_rounding_rule(self):
        # floor(0.1*11)=1 validation, floor(0.3*11)=3 test, remainder 7 train
        m = make_matrix([{f"i{j}": 4.0 for j in range(11)}])
        ds = dt.split_per_user(m, seed=2)
        assert len(ds.train.row(0)[0]) == 7
        assert len(ds.valid.row(0)[0]) == 1
        assert len(ds.test.row(0)[0]) == 3

    def test_same_seed_identical(self):
        m = make_matrix([{f"i{j}": float(j % 5 + 1) for j in range(17)} for _ in range(6)])
        a = dt.split_per_user(m, seed=9)
        b = dt.split_per_user(m, seed=9)
        for u in range(6):
            assert np.array_equal(a.train.row(u)[0], b.train.row(u)[0])
            assert np.array_equal(a.test.row(u)[0], b.test.row(u)[0])

    @given(st.integers(10, 60), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n_items, seed):
        m = make_matrix([{f"i{j}": 1.0 + j % 5 for j in range(n_items)}])
        ds = dt.split_per_user(m, seed=seed)
        tr, va, te = (set(x.row(0)[0].tolist()) for x in (ds.train, ds.valid, ds.test))
        assert tr | va | te == set(m.row(0)[0].tolist())
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


def rating_cells(rows, cols, values, shape):
    return dt.Cells(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), np.array(values, dtype=float),
                    shape)


class TestBinarize:
    def test_all_observed(self):
        x = dt.binarize(rating_cells([0, 0], [0, 1], [5.0, 2.0], (1, 2)))
        np.testing.assert_array_equal(x.dense(), [[1.0, 1.0]])

    def test_positives_only_variant(self):
        x = dt.binarize(rating_cells([0, 0], [0, 1], [5.0, 2.0], (1, 2)), min_rating=4.0)
        np.testing.assert_array_equal(x.dense(), [[1.0, 0.0]])

    def test_empty_row(self):
        # row 1 holds only a rating below the threshold; the shape keeps it
        x = dt.binarize(rating_cells([0, 1, 2], [1, 0, 2], [4.0, 3.0, 5.0], (3, 3)), min_rating=4.0)
        assert x.shape == (3, 3)
        np.testing.assert_array_equal(x.rows, [0, 2])
        np.testing.assert_array_equal(x.dense()[1], [0.0, 0.0, 0.0])

    def test_pattern_preserved(self):
        r = rating_cells([0, 0, 0, 1, 1, 2], [0, 2, 3, 1, 3, 0], [5.0, 1.0, 4.0, 4.5, 2.0, 4.0], (3, 4))
        x = dt.binarize(r, min_rating=4.0)
        np.testing.assert_array_equal(x.rows, [0, 0, 1, 2])
        np.testing.assert_array_equal(x.cols, [0, 3, 1, 0])

    def test_all_cells_are_the_rating_cells(self):
        r = rating_cells([0, 0, 2], [1, 3, 0], [1.0, 5.0, 2.0], (3, 4))
        x = dt.binarize(r)
        np.testing.assert_array_equal(x.rows, r.rows)
        np.testing.assert_array_equal(x.cols, r.cols)
        np.testing.assert_array_equal(x.dense(), r.dense() > 0)


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

    @pytest.mark.parametrize("key", ["seed", "fractions", "rating_threshold"])
    def test_missing_manifest_key_is_named(self, tmp_path, key):
        out = prepared_dir(tmp_path)
        edit_lines(out / "manifest.txt", lambda lines: lines.remove(next(l for l in lines if l.startswith(f"{key}:"))))
        with pytest.raises(DataError, match=f"^manifest.txt: {key} missing$"):
            dt.load_split(str(out))

    @pytest.mark.parametrize("line,what", [
        ("seed: 1.5", "an integer"),
        ("seed: ", "an integer"),
        ("fractions: 0.5/0.5", "three numbers a/b/c"),
        ("fractions: 0.6/0.1/0.2/0.1", "three numbers a/b/c"),
        ("fractions: 0.6/x/0.3", "three numbers a/b/c"),
        ("rating_threshold: nan", "a finite number"),
        ("rating_threshold: inf", "a finite number"),
        ("rating_threshold: four", "a finite number"),
    ])
    def test_unreadable_manifest_value_names_key_and_line(self, tmp_path, line, what):
        key, value = (part.strip() for part in line.split(":"))
        out = prepared_dir(tmp_path)
        lines = (out / "manifest.txt").read_text().splitlines()
        lineno = next(n for n, l in enumerate(lines, start=1) if l.startswith(f"{key}:"))
        edit_lines(out / "manifest.txt", lambda lines: lines.__setitem__(lineno - 1, line))
        with pytest.raises(DataError, match=f"^manifest.txt line {lineno}: {key} needs {re.escape(what)}, "
                                            f"got {re.escape(repr(value))}$"):
            dt.load_split(str(out))

    def test_manifest_values_are_read_back(self, tmp_path):
        m = make_matrix([{f"i{j}": float(j % 5 + 1) for j in range(14)} for _ in range(5)])
        dt.save_split(dt.split_per_user(m, seed=7, fractions=(0.5, 0.2, 0.3), rating_threshold=3.0),
                      str(tmp_path / "prep"))
        ds = dt.load_split(str(tmp_path / "prep"))
        assert (ds.seed, ds.fractions, ds.rating_threshold) == (7, (0.5, 0.2, 0.3), 3.0)

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


@st.composite
def per_user_rows(draw, min_items=0):
    """Per-user (increasing items, ratings) rows of a small matrix and its
    item count; a user may rate nothing when min_items is 0."""
    n_items = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        items = sorted(draw(st.sets(st.integers(0, n_items - 1), min_size=min(min_items, n_items))))
        ratings = draw(st.lists(st.integers(1, 5), min_size=len(items), max_size=len(items)))
        rows.append((np.array(items, dtype=np.intp), np.array(ratings, dtype=np.float64)))
    return rows, n_items


def dense_rows(rows, n_items):
    out = np.zeros((len(rows), n_items))
    for u, (items, ratings) in enumerate(rows):
        out[u, items] = ratings
    return out


def matrix_of(rows, n_items):
    return rating_matrix([f"u{u}" for u in range(len(rows))], [f"i{j}" for j in range(n_items)], rows)


class TestCellsOfUsers:
    @given(per_user_rows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_gather_is_the_dense_rows(self, world, data):
        rows, n_items = world
        m = matrix_of(rows, n_items)
        users = data.draw(st.one_of(st.permutations(range(len(rows))),
                                    st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=1),
                                    st.lists(st.integers(0, len(rows) - 1), max_size=10)))
        cells = m.cells(users)
        assert cells.shape == (len(users), n_items)
        np.testing.assert_array_equal(cells.dense(), dense_rows(rows, n_items)[users])
        np.testing.assert_array_equal(m.dense(users), dense_rows(rows, n_items)[users])
        assert np.all(np.diff(cells.rows * n_items + cells.cols) > 0)  # by row, then item
        for u, (items, ratings) in enumerate(rows):
            np.testing.assert_array_equal(m.row(u)[0], items)
            np.testing.assert_array_equal(m.row(u)[1], ratings)
        assert m.n_entries == sum(items.size for items, _ in rows)

    @given(per_user_rows(), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_filter_keeps_each_counted_user_row(self, world, min_count):
        rows, n_items = world
        kept = [u for u, (items, _) in enumerate(rows) if items.size >= min_count]
        if not kept:
            with pytest.raises(DataError, match="lower the threshold"):
                dt.filter_min_interactions(matrix_of(rows, n_items), min_count)
            return
        out = dt.filter_min_interactions(matrix_of(rows, n_items), min_count)
        items = sorted({j for u in kept for j in rows[u][0].tolist()})
        assert out.user_ids == [f"u{u}" for u in kept]
        assert out.item_ids == [f"i{j}" for j in items]
        np.testing.assert_array_equal(out.dense(), dense_rows(rows, n_items)[kept][:, items])

    @given(per_user_rows(min_items=1), st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_split_parts_partition_each_user_row(self, world, seed):
        rows, n_items = world
        ds = dt.split_per_user(matrix_of(rows, n_items), seed=seed)
        parts = [ds.train.dense(), ds.valid.dense(), ds.test.dense()]
        np.testing.assert_array_equal(sum(parts), dense_rows(rows, n_items))
        assert np.all(np.count_nonzero(np.stack(parts), axis=0) <= 1)
        n = np.array([items.size for items, _ in rows])
        np.testing.assert_array_equal(np.count_nonzero(parts[1], axis=1), np.floor(0.1 * n))
        np.testing.assert_array_equal(np.count_nonzero(parts[2], axis=1), np.floor(0.3 * n))
        for part in (ds.train, ds.valid, ds.test):
            assert part.ratings.shape == (len(rows), n_items)
            assert np.all(np.diff(part.ratings.rows * n_items + part.ratings.cols) > 0)

    def test_a_user_without_ratings_cannot_be_split(self):
        m = matrix_of([(np.array([0, 1], dtype=np.intp), np.array([4.0, 2.0])), (np.array([], dtype=np.intp), [])], 2)
        with pytest.raises(DataError, match="user 'u1' has too few items \\(0\\)"):
            dt.split_per_user(m, seed=0)
