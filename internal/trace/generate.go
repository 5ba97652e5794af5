package trace

// Source is a pull-based incremental job producer: Next returns the jobs of
// a workload in arrival order until ok is false. The composable generator in
// internal/workload implements it; the streaming runners accept any Source
// so multi-million-job workloads never materialize. A Source is not safe for
// concurrent use.
type Source interface {
	Next() (Job, bool)
}
