//! Policy-kind dispatch for the oracle, mirroring [`lpfps::driver::run`].
//!
//! The driver maps a [`PolicyKind`] onto a concrete policy value (and, for
//! the static baseline, a derated processor). The oracle must make the
//! *same* mapping decisions — a divergence should only ever implicate the
//! simulation engines, never the harness — so this module transcribes
//! `driver::run_in` onto [`oracle_simulate_for`].

use crate::sim::oracle_simulate_for;
use lpfps::baselines::{static_slowdown_spec, EdfFps, Fps};
use lpfps::driver::PolicyKind;
use lpfps::lpfps_policy::LpfpsPolicy;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::discipline::Edf as EdfDispatch;
use lpfps_kernel::engine::SimConfig;
use lpfps_kernel::error::SimError;
use lpfps_kernel::policy::PowerPolicy;
use lpfps_kernel::probe::Probe;
use lpfps_kernel::report::SimReport;
use lpfps_tasks::exec::ExecModel;
use lpfps_tasks::taskset::TaskSet;

/// The processor spec a policy kind actually runs on: the derated static
/// operating point for `static`, the given spec for everything else.
///
/// The invariant checker compares segment powers against the spec, so
/// callers checking a `static` report must derate first — this helper
/// makes that decision in one place, matching [`lpfps::driver::run`].
pub fn effective_cpu(ts: &TaskSet, cpu: &CpuSpec, policy_name: &str) -> CpuSpec {
    if policy_name == PolicyKind::StaticSlowdown.name() {
        static_slowdown_spec(ts, cpu).unwrap_or_else(|| cpu.clone())
    } else {
        cpu.clone()
    }
}

/// Runs one experiment cell through the reference simulator, with the same
/// policy construction as [`lpfps::driver::run_in`] (including the
/// `StaticSlowdown` derate-then-rename path) and the same probe contract.
///
/// # Errors
///
/// As [`crate::sim::oracle_simulate`].
pub fn oracle_run<P: Probe>(
    ts: &TaskSet,
    cpu: &CpuSpec,
    kind: PolicyKind,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    let mut fp = |cpu: &CpuSpec, policy: &mut dyn PowerPolicy| {
        oracle_simulate_for(ts, cpu, policy, exec, cfg, probe)
    };
    match kind {
        PolicyKind::Fps => fp(cpu, &mut Fps),
        PolicyKind::FpsPd => fp(cpu, &mut LpfpsPolicy::power_down_only()),
        PolicyKind::LpfpsDvsOnly => fp(cpu, &mut LpfpsPolicy::dvs_only()),
        PolicyKind::Lpfps => fp(cpu, &mut LpfpsPolicy::new()),
        PolicyKind::LpfpsOptimal => fp(cpu, &mut LpfpsPolicy::with_optimal_ratio()),
        PolicyKind::LpfpsWatchdog => fp(
            cpu,
            &mut LpfpsPolicy::with_watchdog(PolicyKind::DEFAULT_WATCHDOG_COOLDOWN),
        ),
        PolicyKind::StaticSlowdown => {
            let derated = static_slowdown_spec(ts, cpu).unwrap_or_else(|| cpu.clone());
            let mut report = fp(&derated, &mut Fps)?;
            report.policy = PolicyKind::StaticSlowdown.name().to_string();
            Ok(report)
        }
        PolicyKind::Edf => {
            oracle_simulate_for::<EdfDispatch, P>(ts, cpu, &mut EdfFps, exec, cfg, probe)
        }
        PolicyKind::CcEdf => {
            let policy = &mut LpfpsPolicy::cc_edf();
            oracle_simulate_for::<EdfDispatch, P>(ts, cpu, policy, exec, cfg, probe)
        }
    }
}
