"""``gtpin serve`` with the benchmark's layer spans around each job.

Usage: ``python traced_serve.py SPANS_OUT serve [gtpin serve options]``

Replaces the names the daemon's job executor calls -- ``load_app``,
``profile_workload``, ``select_simpoints`` and ``simulate_selection`` --
with the same public calls wrapped in spans (profiling and config
scoring through :mod:`decompose`), then runs the unmodified CLI.  Spans
carry the job's W3C trace id, so the benchmark can join them to the job
views; they are kept in memory and written to ``SPANS_OUT`` on exit.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]

    import benchcore as bc
    import decompose
    import repro.serve.server as server
    import repro.serve.work as work
    import repro.simulation.sampled as sampled
    from repro.cli import main as cli_main
    from repro.sampling import SelectionConfig
    from repro.telemetry import context as trace_context

    tracer = bc.Tracer("serve", enabled=True)
    execute_job = server.execute_job
    load_app = work.load_app
    simulate_selection = sampled.simulate_selection

    def traced_execute_job(spec, *args, **kwargs):
        ctx = trace_context.current()
        with tracer.span(
            "serve.execute", trace_id=ctx.trace_id if ctx else "",
            kind=spec.kind,
        ):
            return execute_job(spec, *args, **kwargs)

    def traced_load_app(*args, **kwargs):
        with tracer.span("workloads.load_app"):
            return load_app(*args, **kwargs)

    def traced_profile_workload(application, device, trial_seed=0,
                                cache=None):
        return decompose.profile(tracer, application, device, trial_seed,
                                 cache)

    def traced_select_simpoints(workload, scheme, feature):
        config = SelectionConfig(scheme, feature)
        with tracer.span("sampling.config", config=config.label):
            return decompose.evaluate_config(tracer, config, workload)

    def traced_simulate_selection(*args, **kwargs):
        with tracer.span("simulation.sampled") as span:
            result = simulate_selection(*args, **kwargs)
            span["attrs"] = {
                "instr": result.simulated_instructions, "points": 1,
            }
            return result

    server.execute_job = traced_execute_job
    work.load_app = traced_load_app
    work.profile_workload = traced_profile_workload
    work.select_simpoints = traced_select_simpoints
    sampled.simulate_selection = traced_simulate_selection
    try:
        return cli_main(cli_args)
    finally:
        with open(spans_out, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
