"""The attach() front door on a Session: chaining, options, and errors.

Every form attach() accepts - a path, a SourceSpec, a ready DataSource - must
leave the session exactly as attaching the explicitly built source would:
same source kind, same schema, same query results.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.catalog import SourceSpec
from repro.catalog.csv import CSVSource
from repro.catalog.source import TableSource
from repro.catalog.synthetic import SyntheticSource
from repro.data.flights import make_flights_table
from repro.session import connect


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "t.csv"
    rng = np.random.default_rng(2)
    with open(path, "w") as fh:
        fh.write("g,v\n")
        for g, loc in (("a", 20.0), ("b", 60.0)):
            for v in rng.normal(loc, 5.0, 300).clip(0, 100):
                fh.write(f"{g},{v}\n")
    return path


def _source(session, name):
    return session.catalog.source(name)


def _result_sig(session, table="t", group="g", value="v"):
    result = (
        session.table(table).group_by(group).agg(repro.avg(value)).run(seed=5)
    )
    return (
        result.first.order(),
        result.total_samples,
        sorted((g.label, g.estimate, g.samples) for g in result.first),
    )


class TestAttachMatchesExplicitSources:
    def test_attach_keeps_a_ready_source(self, csv_path):
        source = CSVSource(csv_path, group_columns=("g",), value_columns=("v",))
        session = connect(seed=1).attach("t", source)
        assert _source(session, "t") is source
        via_path = connect(seed=1).attach(
            "t", csv_path, group_columns=("g",), value_columns=("v",)
        )
        assert _result_sig(session) == _result_sig(via_path)

    def test_csv_path_builds_a_csv_source(self, csv_path):
        via_path = connect(seed=1).attach(
            "t", csv_path, group_columns=("g",), value_columns=("v",)
        )
        explicit = connect(seed=1).attach(
            "t", CSVSource(csv_path, group_columns=("g",), value_columns=("v",))
        )
        assert isinstance(_source(via_path, "t"), CSVSource)
        schemas = [list(_source(s, "t").schema()) for s in (via_path, explicit)]
        assert schemas[0] == schemas[1]
        assert _result_sig(via_path) == _result_sig(explicit)

    def test_csv_spec_matches_csv_path(self, csv_path):
        via_spec = connect(seed=1).attach(
            "t", SourceSpec("csv", path=csv_path, group_columns=("g",))
        )
        via_path = connect(seed=1).attach("t", csv_path, group_columns=("g",))
        assert isinstance(_source(via_spec, "t"), CSVSource)
        assert _result_sig(via_spec) == _result_sig(via_path)

    def test_flights_spec_matches_the_generated_table(self):
        via_spec = connect(seed=1).attach(
            "flights", SourceSpec("flights", rows=2_000, seed=3)
        )
        via_table = connect(seed=1).attach(
            "flights", make_flights_table(num_rows=2_000, seed=3)
        )
        sig = lambda s: _result_sig(
            s, table="flights", group="carrier", value="arrival_delay"
        )
        assert sig(via_spec) == sig(via_table)

    def test_synthetic_spec_builds_a_synthetic_source(self):
        params = dict(k=3, total_size=2_000, seed=4, materialize=True)
        via_spec = connect(seed=1).attach(
            "bench", SourceSpec("synthetic", family="mixture", **params)
        )
        explicit = connect(seed=1).attach(
            "bench", SyntheticSource("mixture", **params)
        )
        assert isinstance(_source(via_spec, "bench"), SyntheticSource)
        sig = lambda s: _result_sig(s, table="bench", group="g", value="value")
        assert sig(via_spec) == sig(explicit)


class TestAttachFrontDoor:
    def test_attach_chains_and_lists(self, csv_path):
        session = connect().attach("t", csv_path).attach(
            "mem", {"g": np.array(["a", "b"]), "v": np.arange(2.0)}
        )
        assert set(session.tables) == {"t", "mem"}
        assert isinstance(_source(session, "mem"), TableSource)

    def test_parquet_path_passes_options_to_the_source(self, tmp_path):
        pytest.importorskip("pyarrow")
        from repro.catalog.parquet import ParquetSource

        session = connect().attach("t", tmp_path / "t.parquet", batch_rows=64)
        source = _source(session, "t")
        assert isinstance(source, ParquetSource)
        assert source._batch_rows == 64

    def test_register_still_takes_tables_not_paths(self, csv_path):
        with pytest.raises(TypeError, match="use attach"):
            connect().register("t", str(csv_path))

    def test_connect_rejects_store_plus_catalog(self, tmp_path):
        from repro.catalog import Catalog

        with pytest.raises(ValueError, match="not both"):
            connect(store=tmp_path / "s", catalog=Catalog())
