package core

// ZeroSource exposes the System's fio zero source to external tests.
func (s *System) ZeroSource() []byte { return s.zeros }
