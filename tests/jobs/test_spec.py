"""Job-spec validation and YAML/JSON job-file parsing."""

import json
from pathlib import Path

import pytest

from repro.jobs import (JobSpecError, TrainingJob, load_job_file,
                        parse_job_specs, parse_simple_yaml)
from repro.jobs.spec import CLUSTER_KEYS
from repro.serving import FlashCrowd

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "jobs.yaml"

YAML_DOC = """\
# a comment
cluster:
  socs: 16
  seed: 7
jobs:
  - id: alpha
    workload: vgg11
    priority: 2
    min_socs: 4
    max_socs: 8
    mixed: true
  - id: beta
    workload: lenet5_fmnist
    submit_hour: 1.5
"""


class TestTrainingJobValidation:
    def test_defaults(self):
        job = TrainingJob(id="j", workload="vgg11")
        assert job.priority == 1
        assert job.min_socs <= job.max_socs
        assert job.deadline_hours is None

    @pytest.mark.parametrize("overrides", [
        {"id": ""},
        {"workload": ""},
        {"priority": 0},
        {"min_socs": 0},
        {"min_socs": 8, "max_socs": 4},
        {"epochs": 0},
        {"submit_hour": -1.0},
        {"deadline_hours": 0.0},
        {"target_group_size": 0},
    ])
    def test_rejects_bad_fields(self, overrides):
        spec = dict(id="j", workload="vgg11")
        spec.update(overrides)
        with pytest.raises(JobSpecError):
            TrainingJob(**spec)


class TestParseJobSpecs:
    def test_bare_list(self):
        jobs, cluster = parse_job_specs([{"id": "a", "workload": "vgg11"}])
        assert [j.id for j in jobs] == ["a"]
        assert cluster == {}

    def test_cluster_section(self):
        jobs, cluster = parse_job_specs({
            "cluster": {"socs": 16},
            "jobs": [{"id": "a", "workload": "vgg11"}]})
        assert cluster == {"socs": 16}

    def test_unknown_job_field_rejected(self):
        with pytest.raises(JobSpecError, match="unknown field"):
            parse_job_specs([{"id": "a", "workload": "vgg11",
                              "gpus": 4}])

    def test_unknown_cluster_key_rejected(self):
        with pytest.raises(JobSpecError, match="fusion_treshold_mb") as err:
            parse_job_specs({"cluster": {"fusion_treshold_mb": 4},
                             "jobs": [{"id": "a", "workload": "vgg11"}]})
        # the message names what is accepted
        assert all(key in str(err.value) for key in CLUSTER_KEYS)

    def test_unknown_top_level_section_rejected(self):
        with pytest.raises(JobSpecError, match="top-level"):
            parse_job_specs({"jobs": [{"id": "a", "workload": "v"}],
                             "nodes": 3})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(JobSpecError, match="duplicate"):
            parse_job_specs([{"id": "a", "workload": "v"},
                             {"id": "a", "workload": "v"}])

    @pytest.mark.parametrize("payload", [
        "jobs: everywhere", {"jobs": []}, {"jobs": "nope"}, {}, []])
    def test_malformed_documents_rejected(self, payload):
        with pytest.raises(JobSpecError):
            parse_job_specs(payload)

    def test_cluster_values_are_converted(self):
        _, cluster = parse_job_specs({
            "cluster": {"socs": "16", "horizon_hours": 8, "graph": False,
                        "flash_crowds": ["20:30:2"], "max_replicas": None},
            "jobs": [{"id": "a", "workload": "vgg11"}]})
        assert cluster == {"socs": 16, "horizon_hours": 8.0, "graph": False,
                           "flash_crowds": [FlashCrowd(20.0, 30.0, 2.0)]}
        assert type(cluster["horizon_hours"]) is float


#: per ``cluster:`` key, a wrong-typed value and an out-of-range one
HOSTILE = {
    "socs": ("abc", 12.7, 0),
    "seed": ("abc", -1),
    "peak_sessions_per_hour": ("abc", 0),
    "horizon_hours": (True, 0),
    "start_hour": ("abc", -1.0),
    "quantum_hours": ([1], -1),
    "fusion_threshold_mb": ("abc", float("nan")),
    "fusion_max_ops": (2.5, 0),
    "graph": ("maybe", 1),
    "flash_crowds": ("20:30:2", [20], ["nan:1:2"], ["20:1:0.5"]),
    "serve_model": (5, ""),
    "peak_rps": ("abc", -5),
    "max_replicas": ("abc", 0),
    "slo_ms": ("abc", float("inf")),
    "min_replicas": (1.5, -1),
}


def test_every_cluster_key_has_hostile_values():
    assert set(HOSTILE) == CLUSTER_KEYS


@pytest.mark.parametrize("key,value", [(key, value)
                                       for key, values in HOSTILE.items()
                                       for value in values])
def test_hostile_cluster_value_is_refused_naming_its_key(key, value):
    with pytest.raises(JobSpecError, match=f"^cluster key {key}: "):
        parse_job_specs({"cluster": {key: value},
                         "jobs": [{"id": "a", "workload": "vgg11"}]})


class TestSimpleYaml:
    def test_parses_nested_document(self):
        payload = parse_simple_yaml(YAML_DOC)
        assert payload["cluster"] == {"socs": 16, "seed": 7}
        alpha, beta = payload["jobs"]
        assert alpha == {"id": "alpha", "workload": "vgg11",
                         "priority": 2, "min_socs": 4, "max_socs": 8,
                         "mixed": True}
        assert beta["submit_hour"] == 1.5

    def test_scalar_types(self):
        payload = parse_simple_yaml(
            "a: 1\nb: 2.5\nc: yes\nd: 'quoted'\ne: null\nf: text\n")
        assert payload == {"a": 1, "b": 2.5, "c": True, "d": "quoted",
                           "e": None, "f": "text"}

    def test_empty_document_rejected(self):
        with pytest.raises(JobSpecError):
            parse_simple_yaml("# only comments\n")

    def test_example_file_parses(self):
        jobs, cluster = parse_job_specs(
            parse_simple_yaml(EXAMPLE.read_text()))
        assert len(jobs) >= 3
        assert cluster["socs"] == 32

    def test_keys_split_only_at_colon_space(self):
        payload = parse_simple_yaml(
            "cluster:\n  flash_crowds:\n    - 20:30:2\n    - '20:30:2'\n"
            "  serve_model: resnet18\n")
        assert payload == {"cluster": {"flash_crowds": ["20:30:2", "20:30:2"],
                                       "serve_model": "resnet18"}}
        with pytest.raises(JobSpecError, match="key: value"):
            parse_simple_yaml("socs:32\n")

    def test_quoted_and_unquoted_crowds_are_one_crowd(self, tmp_path):
        path = tmp_path / "jobs.yaml"
        path.write_text("cluster:\n  flash_crowds:\n    - 20:30:2\n"
                        "    - \"20:30:2\"\n"
                        "jobs:\n  - id: a\n    workload: vgg11\n")
        _, cluster = load_job_file(path)
        # the loader hands back converted values: two equal crowds
        assert cluster["flash_crowds"] == [FlashCrowd(20.0, 30.0, 2.0)] * 2


class TestLoadJobFile:
    def test_json_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(
            {"jobs": [{"id": "a", "workload": "vgg11"}]}))
        jobs, _ = load_job_file(path)
        assert jobs[0].workload == "vgg11"

    def test_bad_json_reports_path(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text("{nope")
        with pytest.raises(JobSpecError, match="jobs.json"):
            load_job_file(path)

    def test_yaml_without_pyyaml_uses_fallback(self, tmp_path):
        path = tmp_path / "jobs.yaml"
        path.write_text(YAML_DOC)
        jobs, cluster = load_job_file(path)
        assert [j.id for j in jobs] == ["alpha", "beta"]
        assert cluster["seed"] == 7

    def test_example_file_loads(self):
        jobs, cluster = load_job_file(EXAMPLE)
        assert {j.id for j in jobs} == {"vgg-nightly", "mobilenet-batch",
                                        "lenet-late"}
        assert jobs[0].deadline_hours == 12
