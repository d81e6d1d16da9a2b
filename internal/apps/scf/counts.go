package scf

// Exported closed-form workload counts. The analytic estimator
// (internal/roofline) mirrors SCF 1.1's and 3.0's op and byte counts without
// running them; exporting the calibrated constants here keeps the two in
// lockstep — a recalibration in scf.go is picked up by the estimator (and
// its cross-validation suite) automatically.
const (
	// IntegralBytes is the stored size of one significant integral.
	IntegralBytes = integralBytes
	// ScreenFrac is the surviving fraction of the N^4/8 integrals.
	ScreenFrac = screenFrac
	// ReadIterationCount is the number of SCF iterations that re-read
	// the integral file.
	ReadIterationCount = readIterations
	// EvalFlopsPerIntegral is the integral-evaluation arithmetic.
	EvalFlopsPerIntegral = evalFlopsPerIntegral
	// FockFlopsPerStored11 is SCF 1.1's per-iteration Fock arithmetic
	// per stored integral; FockFlopsPerStored30 is SCF 3.0's cheaper
	// counterpart.
	FockFlopsPerStored11 = fockFlopsPerStored
	FockFlopsPerStored30 = fock30FlopsPerStored
	// RecomputeCostFactor discounts re-evaluated integrals in SCF 3.0.
	RecomputeCostFactor = recomputeCostFactor
	// RecordBlockCount is the number of index blocks in a private
	// integral file (the original code seeks at each boundary).
	RecordBlockCount = recordBlocks
	// DefaultMemoryKB11 and DefaultMemoryKB30 are the per-process I/O
	// buffer defaults of Config11 and Config30.
	DefaultMemoryKB11 = 64
	DefaultMemoryKB30 = 256
)

// Integrals is the two-electron integral count N^4/8 for n basis functions.
func Integrals(n int) float64 { return integrals(n) }
