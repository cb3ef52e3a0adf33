package resilience

// Retries returns the number of retries the policy allows beyond the
// first attempt (never negative).
func (p Policy) Retries() int {
	if p.MaxAttempts <= 1 {
		return 0
	}
	return p.MaxAttempts - 1
}
