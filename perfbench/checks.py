"""Correctness gate: every answer the program gives in a run is checked.

* A TIME_LIMIT outcome fails the run: the limit is far above every solve time.
* Every written solution must pass ``validate.check_feasibility`` against the
  generator's own model and reproduce the logged objective.
* (status, objective, nodes, ticks) of a job must be identical in every pass;
  a resumed job must match the adapted suite's record of the same instance.
* After the measured passes, every OPTIMAL or INFEASIBLE claim is compared with
  ``oracle.reference``.

ERROR outcomes are failed jobs but not wrong answers: they count in ``failed``
and leave ``correct`` alone.  No instance is ever dropped.
"""

from __future__ import annotations

import math

from milpbench.runner import RunRecord, RunStatus
from milpbench.solution_io import read_solution
from milpbench.solver import Solution
from milpbench.validate import check_feasibility

import oracle
from workloads import PassResult, Workload

_CLAIMS = (RunStatus.OPTIMAL, RunStatus.INFEASIBLE)


def fingerprint(rec: RunRecord) -> tuple:
    return (rec.status.value, rec.objective, rec.nodes, rec.ticks)


class Gate:
    def __init__(self, wl: Workload):
        self.wl = wl
        self.problems: list[str] = []
        self.executed: list[tuple[int, tuple[str, str]]] = []
        self.failed: set[int] = set()  # indices into executed
        self.first: dict[tuple[str, str], RunRecord] = {}
        self.timed_out = False

    @property
    def attempted(self) -> int:
        return len(self.executed)

    @property
    def correct(self) -> bool:
        return not self.problems

    def _fail(self, job: int, problem: str = "") -> None:
        self.failed.add(job)
        if problem:
            pass_no, (suite, name) = self.executed[job]
            self.problems.append(f"pass {pass_no} {suite}/{name}: {problem}")

    def check_pass(self, pass_no: int, result: PassResult) -> None:
        self.problems += [f"pass {pass_no}: {p}" for p in result.problems]
        for job in result.jobs:
            rec = job.record
            key = ("adapted" if job.suite == "resumed" else job.suite, rec.instance_name)
            job_no = len(self.executed)
            self.executed.append((pass_no, key))
            if rec.status is RunStatus.ERROR:
                self._fail(job_no)
            elif rec.status is RunStatus.TIME_LIMIT:
                self.timed_out = True
                self._fail(job_no, "time limit reached")
            problem = self._solution_problem(rec)
            if problem:
                self._fail(job_no, problem)
            first = self.first.setdefault(key, rec)
            if fingerprint(first) != fingerprint(rec):
                self._fail(job_no, f"{fingerprint(rec)} differs from {fingerprint(first)}")

    def fail_pass(self, pass_no: int, error: BaseException) -> None:
        """A pass that raised: every job of the dataset counts as attempted and failed."""
        self.problems.append(f"pass {pass_no} raised {type(error).__name__}: {error}")
        for name in self.wl.instances:
            self.executed.append((pass_no, (self.wl.name, name)))
            self.failed.add(len(self.executed) - 1)

    def _solution_problem(self, rec: RunRecord) -> str:
        if rec.status is RunStatus.INFEASIBLE and rec.solution_path:
            return "infeasible claim with a solution file"
        if rec.status is RunStatus.OPTIMAL and not rec.solution_path:
            return "optimal claim without a solution file"
        if not rec.solution_path:
            return ""
        values, file_obj = read_solution(rec.solution_path)
        inst = self.wl.instances[rec.instance_name]
        report = check_feasibility(inst, Solution(values, file_obj if file_obj is not None else math.nan))
        if not report.feasible:
            return f"infeasible solution (rows {report.max_row_violation:g}, bounds {report.max_bound_violation:g})"
        for label, value in (("file", file_obj), ("recomputed", report.objective_recomputed)):
            if value is None or not math.isclose(value, rec.objective, rel_tol=1e-6, abs_tol=1e-6):
                return f"{label} objective {value} differs from logged {rec.objective}"
        return ""

    def check_answers(self) -> None:
        """Compare every OPTIMAL/INFEASIBLE claim with the independent reference."""
        refs: dict[str, tuple] = {}
        for key, rec in self.first.items():
            if rec.status not in _CLAIMS:
                continue
            name = rec.instance_name
            if name not in refs:
                refs[name] = oracle.reference(self.wl.instances[name], self.wl.known_optima.get(name))
            if not oracle.agrees(self.wl.instances[name], rec.status.value, rec.objective, refs[name]):
                self.failed.update(k for k, (_, done) in enumerate(self.executed) if done == key)
                self.problems.append(
                    f"{key[0]}/{name}: claimed {rec.status.value} {rec.objective}, reference {refs[name]}"
                )
