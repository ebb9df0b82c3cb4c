"""Schedule planner: pick the best pipeline schedule for a config.

The paper shows that vocabulary-parallel schedules dominate the naive
and Redis baselines across device counts, vocabulary ratios and memory
budgets — but only by replaying its fixed experiment grid.  This
package turns that result into a *decision procedure*: given any
model/hardware description, it enumerates every implemented schedule
family, prices each with the analytic cost model, verifies the
frontrunners with the discrete-event simulator, and ranks them under a
peak-memory constraint.

The public names are exported by :mod:`repro.api`; they are defined in
:mod:`repro.planner.planner`, :mod:`repro.planner.sweep`,
:mod:`repro.planner.whatif`, :mod:`repro.planner.cache` and
:mod:`repro.planner.estimate`.

CLI: ``repro-experiments plan --devices 8 --vocab 128k``.
"""
