package trace

// Hooks for the external differential tests, which record real workloads
// and so cannot live in this package.
var (
	OracleReadText     = oracleReadText
	OracleValidate     = oracleValidate
	OracleBuildProfile = oracleBuildProfile
	DiffRepair         = diffRepair
	FuzzTextSeeds      = fuzzTextSeeds
	Allocated          = allocated
)

// ValidateAt is Validate plus the index of the offending event, as Repair
// sees it.
func ValidateAt(l *Log) (int, error) {
	_, i, err := l.validate()
	return i, err
}
