package imc

// SetFoldThreshold replaces the fold threshold for a test or benchmark
// of this package and returns a function that restores it.
func SetFoldThreshold(f func(rows int) int) (restore func()) {
	old := foldThreshold
	foldThreshold = f
	return func() { foldThreshold = old }
}

// Fold folds the store's pending rows now, whatever their number.
func (s *Store) Fold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.img.Load()
	s.publish(cur, cur.folded())
}

// FoldThreshold is the threshold in force.
func FoldThreshold(rows int) int { return foldThreshold(rows) }
