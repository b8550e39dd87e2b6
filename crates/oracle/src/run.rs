//! Policy-kind dispatch for the oracle: [`lpfps::driver::run_with`] on
//! the reference simulator, so the engine and the oracle share one
//! `PolicyKind` mapping and a divergence can only implicate the
//! simulators, never the harness.

use crate::sim::oracle_simulate_for;
use lpfps::driver::{run_with, PolicyKind, Simulator};
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::discipline::Discipline;
use lpfps_kernel::engine::SimConfig;
use lpfps_kernel::error::SimError;
use lpfps_kernel::policy::PowerPolicy;
use lpfps_kernel::probe::Probe;
use lpfps_kernel::report::SimReport;
use lpfps_tasks::exec::ExecModel;
use lpfps_tasks::taskset::TaskSet;

/// Runs one experiment cell through the reference simulator, with the same
/// policy construction as [`lpfps::driver::run_in`] (including the
/// `StaticSlowdown` derate-then-rename path) and the same probe contract.
///
/// # Errors
///
/// As [`crate::sim::oracle_simulate_for`].
pub fn oracle_run<P: Probe>(
    ts: &TaskSet,
    cpu: &CpuSpec,
    kind: PolicyKind,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    run_with(&mut Reference(exec, cfg, probe), ts, cpu, kind)
}

/// The reference simulator as a [`Simulator`]: [`oracle_simulate_for`]
/// with the rest of [`oracle_run`]'s arguments bound, in order (`exec`,
/// `cfg`, `probe`).
struct Reference<'a, P>(&'a dyn ExecModel, &'a SimConfig, &'a mut P);

impl<P: Probe> Simulator for Reference<'_, P> {
    fn simulate<D: Discipline>(
        &mut self,
        ts: &TaskSet,
        cpu: &CpuSpec,
        policy: &mut dyn PowerPolicy<D>,
    ) -> Result<SimReport, SimError> {
        oracle_simulate_for(ts, cpu, policy, self.0, self.1, self.2)
    }
}
