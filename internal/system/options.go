package system

import (
	"dbisim/internal/telemetry"
)

// Option configures a System at construction time. Options are applied
// by New in a fixed internal order (tracer, attribution, time series),
// so combinations behave the same regardless of the order they are
// passed in:
//
//	sys, err := system.New(cfg, benches, seed,
//		system.WithTracer(t),
//		system.WithTimeSeries(epoch))
//
// A System built with options is fully configured when New returns.
// (The AttachTracer/EnableTimeSeries mutator shims these options
// replaced have been removed.)
type Option func(*options)

type options struct {
	tracer *telemetry.Tracer
	epoch  uint64
	attr   bool
}

// WithTracer wires a request-lifecycle tracer into every component and
// labels their viewer lanes. Tracing never changes simulated behavior:
// Results stay bit-identical with and without it
// (TestTelemetryDoesNotPerturbResults).
func WithTracer(t *telemetry.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithTimeSeries registers every component's metrics (and the
// simulator's self-throughput gauges) and arms an epoch sampler that
// snapshots them every epochCycles cycles during Run. The sampler only
// reads counters at epoch boundaries, so — like tracing — it cannot
// perturb the simulation's results. Retrieve the sampler with Sampler
// after New.
func WithTimeSeries(epochCycles uint64) Option {
	return func(o *options) { o.epoch = epochCycles }
}

// WithAttribution attaches a cycle/bandwidth attribution ledger to
// every component; Results gain an Attr report split at the
// warmup→measure boundary. Attribution never schedules events or
// influences decisions, so Results stay bit-identical with and without
// it. A sweep passes it to every cell through Pool.Run.
func WithAttribution() Option {
	return func(o *options) { o.attr = true }
}

// apply wires the collected options into the assembled system.
func (s *System) apply(o *options) {
	if o.tracer != nil {
		s.attachTracer(o.tracer)
	}
	if o.attr {
		s.attachAttr(&telemetry.Attribution{})
	}
	if o.epoch > 0 {
		reg := telemetry.NewRegistry()
		s.RegisterMetrics(reg)
		s.registerSelfMetrics(reg)
		s.sampler = telemetry.NewSampler(reg, o.epoch)
	}
}
