import contextlib

from masinfo.harness import MockChatBackend, WorkflowSpec, run_workflow
from masinfo.store import RunStore
from test_harness import TASK_MC, make_plan

CONFIG = {"workflow": "vote", "layer": "L1", "n_agents_list": [2], "seed": 0}


class TestRunStore:
    def test_resume_set(self, tmp_path, pool):
        spec = WorkflowSpec("vote", 2)
        with contextlib.closing(RunStore(tmp_path / "run")) as run:
            assert run.begin(CONFIG, [spec]) == {spec: set()}
            run.append(spec, run_workflow(TASK_MC, spec, make_plan(), MockChatBackend(seed=0),
                                          pool), None)
        assert RunStore(tmp_path / "run").begin(CONFIG, [spec]) == {spec: {"t1"}}
