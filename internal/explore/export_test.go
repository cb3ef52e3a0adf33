package explore

// Len returns the number of training samples observed so far.
func (s *Surrogate) Len() int { return len(s.ys) }
