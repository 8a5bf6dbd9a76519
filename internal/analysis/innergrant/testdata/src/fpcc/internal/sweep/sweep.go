// Package sweep is a fixture recreating the sweep runner config.
package sweep

// Config is a sweep; Workers 0 means serial.
type Config struct {
	BaseSeed uint64
	Workers  int
}

// Run evaluates fn once per cell.
func Run[T any](cfg Config, fn func(i int) (T, error)) ([]T, error) {
	v, err := fn(0)
	return []T{v}, err
}
