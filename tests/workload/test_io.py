"""Workload persistence tests (JSONL logs, session-library JSON)."""

import json

import pytest

from repro.errors import WorkloadError
from repro.workload.io import (
    load_session_library,
    read_tenant_log,
    save_session_library,
    write_tenant_log,
)
from repro.workload.logs import QueryRecord, TenantLog
from repro.workload.tenant import TenantSpec


def _log(records=3):
    spec = TenantSpec(
        tenant_id=7,
        nodes_requested=4,
        data_gb=400.0,
        benchmark="tpcds",
        max_users=3,
        tz_offset_hours=8,
    )
    return TenantLog(
        spec,
        [
            QueryRecord(
                submit_time_s=10.0 * i,
                latency_s=1.5,
                template="tpcds.q72",
                user=i % 2,
                batch_id=i,
            )
            for i in range(records)
        ],
    )


class TestTenantLogRoundtrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        original = _log()
        path = write_tenant_log(original, tmp_path / "t7.jsonl")
        loaded = read_tenant_log(path)
        assert loaded.tenant == original.tenant
        assert loaded.records == original.records

    def test_empty_log_roundtrip(self, tmp_path):
        original = _log(records=0)
        loaded = read_tenant_log(write_tenant_log(original, tmp_path / "t.jsonl"))
        assert len(loaded) == 0
        assert loaded.tenant.tenant_id == 7

    def test_composed_log_roundtrip(self, tmp_path, workload):
        original = workload.tenant_log(0)
        loaded = read_tenant_log(write_tenant_log(original, tmp_path / "t0.jsonl"))
        assert loaded.records == original.records
        assert loaded.busy_intervals() == original.busy_intervals()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(WorkloadError):
            read_tenant_log(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(WorkloadError):
            read_tenant_log(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = write_tenant_log(_log(1), tmp_path / "t.jsonl")
        with path.open("a") as handle:
            handle.write("not json\n")
        with pytest.raises(WorkloadError):
            read_tenant_log(path)

    def test_nan_submit_time_rejected(self, tmp_path):
        path = write_tenant_log(_log(1), tmp_path / "t.jsonl")
        header, line = path.read_text().splitlines()
        record = json.loads(line)
        record["t"] = "nan"
        path.write_text(f"{header}\n{json.dumps(record)}\n")
        with pytest.raises(WorkloadError, match="finite and non-negative"):
            read_tenant_log(path)

    def test_record_count_checked(self, tmp_path):
        path = write_tenant_log(_log(3), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one record
        with pytest.raises(WorkloadError):
            read_tenant_log(path)

    def test_version_checked(self, tmp_path):
        path = write_tenant_log(_log(1), tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(WorkloadError):
            read_tenant_log(path)


class TestSessionLibraryRoundtrip:
    def test_roundtrip(self, tmp_path, library):
        path = save_session_library(library, tmp_path / "library.json")
        loaded = load_session_library(path)
        assert loaded.node_sizes == library.node_sizes
        for size in library.node_sizes:
            original_sessions = library.sessions_for(size)
            loaded_sessions = loaded.sessions_for(size)
            assert len(loaded_sessions) == len(original_sessions)
            assert loaded_sessions[0].records == original_sessions[0].records
            assert loaded_sessions[0].benchmark == original_sessions[0].benchmark

    def test_loaded_library_usable_for_composition(self, tmp_path, config, library):
        from repro.workload.composer import MultiTenantLogComposer

        loaded = load_session_library(save_session_library(library, tmp_path / "l.json"))
        workload = MultiTenantLogComposer(config, loaded).compose(num_tenants=5)
        assert len(workload) == 5

    def test_epoch_cache_rebuilt(self, tmp_path, library, config):
        loaded = load_session_library(save_session_library(library, tmp_path / "l.json"))
        size = config.node_sizes[0]
        a = library.epoch_indices(size, 0, 10.0)
        b = loaded.epoch_indices(size, 0, 10.0)
        assert (a == b).all()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(WorkloadError):
            load_session_library(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{{")
        with pytest.raises(WorkloadError):
            load_session_library(path)
