package suite

import _ "embed"

// Irregular lists the stress programs whose hot subscripts come from
// data: subscripted subscripts, data-dependent loop bounds, and one
// gather that traps. They exercise what the Table 1 models barely do —
// checks no scheme may remove and a trap raised mid-run — and feed the
// engine-identity tests, the fused-opcode census, and the
// FuzzEngineIdentity seeds. They are not part of Programs, so Tables
// 1–3 never see them. The sources are the programs the bench module's
// run-irregular workload serves.
var Irregular = []Program{
	{"csr", "stress", "CSR sparse matrix-vector product: loaded row bounds, column gather", srcCSR},
	{"histogram", "stress", "weighted histogram with loaded bins, then an edge-aware smoothing stencil", srcHistogram},
	{"bfs", "stress", "breadth-first search: adjacency gather and a data-dependent queue tail", srcBFS},
	{"gather_tail", "stress", "gather through an index table whose tail holds one out-of-range entry", srcGatherTail},
}

var (
	//go:embed irregular/csr.mf
	srcCSR string
	//go:embed irregular/histogram.mf
	srcHistogram string
	//go:embed irregular/bfs.mf
	srcBFS string
	//go:embed irregular/gather_tail.mf
	srcGatherTail string
)
