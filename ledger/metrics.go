package main

import "strings"

// metricDef names one reported metric and its unit. The two catalogs below
// are the benchmark's contract: BENCHMARK.json at the repository root
// lists the same names and units (checked by TestCatalogMatchesManifest).
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the program sees; printed with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ground_state_s", "s"},
	{"wall_per_fs_s", "s/fs"},
	{"time_to_solution_s", "s"},
	{"peak_rss_mb", "MB"},
	{"jobs_per_hour", "1/h"},
	{"job_latency_p50_s", "s"},
	{"first_sample_p50_s", "s"},
}

// perLayer splits the end-to-end numbers by layer; printed with --trace 1.
// Self times are rank-seconds of one traced run, folded per track.
var perLayer = []metricDef{
	{"scf.iterations", "count"},
	{"scf.s_per_iter", "s"},
	{"scf.exchange_self_s", "s"},
	{"scf.psi_repeat_diff", "au"},
	{"ptcn.inner_scf_iters", "count"},
	{"ptcn.step_self_s", "s"},
	{"ptcn.scf_iter_self_s", "s"},
	{"ptcn.residual_self_s", "s"},
	{"ptcn.energy_self_s", "s"},
	{"sim.step_p50_ms", "ms"},
	{"sim.step_tail_ms", "ms"},
	{"fock.exchange_self_s", "s"},
	{"fock.exchange_calls", "count"},
	{"fock.contract_self_s", "s"},
	{"fock.ace_build_self_s", "s"},
	{"fock.ace_build_calls", "count"},
	{"fock.ace_apply_self_s", "s"},
	{"fourier.fft_self_s", "s"},
	{"potential.density_self_s", "s"},
	{"mpi.wait_s", "s"},
	{"mpi.transfer_s", "s"},
	{"mpi.wait_share", "ratio"},
	{"mpi.bytes.bcast", "B"},
	{"mpi.bytes.alltoallv", "B"},
	{"mpi.bytes.allreduce", "B"},
	{"mpi.bytes.allgatherv", "B"},
	{"mpi.calls.bcast", "count"},
	{"mpi.calls.alltoallv", "count"},
	{"mpi.calls.allreduce", "count"},
	{"mpi.calls.allgatherv", "count"},
	{"observe.self_s", "s"},
	{"server.queue_wait_p50_s", "s"},
	{"server.run_p50_s", "s"},
	{"server.job_latency_tail_s", "s"},
	{"server.scf_hit_ratio", "ratio"},
	{"server.scf_wall_s", "s"},
	{"server.preemptions", "count"},
	{"server.resumes", "count"},
	{"checkpoint.saves", "count"},
	{"checkpoint.save_s", "s"},
	{"ion.step_p50_ms", "ms"},
	{"ion.energy_drift_ha", "Ha"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_vs_busy", "ratio"},
}

// layerOf is the layer (module) a per-layer metric belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
