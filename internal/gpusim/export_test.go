package gpusim

// WithoutFastForward is cfg with steady-state fast-forward off and the
// event skip on (the noSteady hook), for the corpus benchmark, which
// lives outside the package because the corpus imports it.
func WithoutFastForward(cfg Config) Config {
	cfg.noSteady = true
	return cfg
}
