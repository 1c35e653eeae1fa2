// Package mlpredict provides the learning component of the "intelligent
// runtime" (paper Sec. VI-C: "the runtime will use machine learning
// techniques to make intelligent decisions on the execution of the
// workflows, and learning from previous executions").
//
// Two online estimators are combined:
//
//   - an exponentially weighted moving average per task class (captures
//     per-class mean duration quickly), and
//   - an online simple linear regression on input size (captures
//     size-dependent behaviour of data-parallel tasks).
//
// Both are O(1) per observation, so the predictor can sit inside the
// scheduler's hot path.
package mlpredict

import (
	"sync"
	"time"
)

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	alpha float64
	value float64
	n     int
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a sample into the average.
func (e *EWMA) Observe(v float64) {
	if e.n == 0 {
		e.value = v
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	e.n++
}

// Value returns the current average and whether any sample was seen.
func (e *EWMA) Value() (float64, bool) { return e.value, e.n > 0 }

// Count returns the number of samples observed.
func (e *EWMA) Count() int { return e.n }

// LinReg is an online simple linear regression y = a + b·x using Welford-
// style accumulation.
type LinReg struct {
	n            int
	meanX, meanY float64
	m2x, covXY   float64
}

// Observe adds one (x, y) sample.
func (l *LinReg) Observe(x, y float64) {
	l.n++
	dx := x - l.meanX
	l.meanX += dx / float64(l.n)
	l.meanY += (y - l.meanY) / float64(l.n)
	l.m2x += dx * (x - l.meanX)
	l.covXY += dx * (y - l.meanY)
}

// Coeffs returns intercept a and slope b. With fewer than 2 samples or
// degenerate x it falls back to slope 0 and intercept = mean(y).
func (l *LinReg) Coeffs() (a, b float64) {
	if l.n < 2 || l.m2x == 0 {
		return l.meanY, 0
	}
	b = l.covXY / l.m2x
	a = l.meanY - b*l.meanX
	return a, b
}

// Predict estimates y for x.
func (l *LinReg) Predict(x float64) float64 {
	a, b := l.Coeffs()
	return a + b*x
}

// Count returns the number of samples observed.
func (l *LinReg) Count() int { return l.n }

// classModel is the per-task-class learning state.
type classModel struct {
	mean *EWMA
	size *LinReg
}

// Predictor estimates task durations per class from execution history. It
// is safe for concurrent use.
type Predictor struct {
	mu      sync.RWMutex
	classes map[string]*classModel
	def     time.Duration
}

// NewPredictor returns a predictor that answers def for unseen classes.
func NewPredictor(def time.Duration) *Predictor {
	return &Predictor{
		classes: make(map[string]*classModel),
		def:     def,
	}
}

// Observe records a completed task: its class, an input-size covariate
// (bytes; use 0 when irrelevant) and the measured duration.
func (p *Predictor) Observe(class string, size int64, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.classes[class]
	if !ok {
		m = &classModel{mean: NewEWMA(0.3), size: &LinReg{}}
		p.classes[class] = m
	}
	m.mean.Observe(d.Seconds())
	if size > 0 {
		m.size.Observe(float64(size), d.Seconds())
	}
}

// Predict estimates the duration of a task of the given class and input
// size. The regression is used once it has ≥ 3 samples and a positive
// slope-quality signal; otherwise the per-class EWMA; otherwise the
// default.
func (p *Predictor) Predict(class string, size int64) time.Duration {
	p.mu.RLock()
	defer p.mu.RUnlock()
	m, ok := p.classes[class]
	if !ok {
		return p.def
	}
	if size > 0 && m.size.Count() >= 3 {
		if y := m.size.Predict(float64(size)); y > 0 {
			return time.Duration(y * float64(time.Second))
		}
	}
	if v, seen := m.mean.Value(); seen {
		return time.Duration(v * float64(time.Second))
	}
	return p.def
}

// Trained reports whether the class has at least n observations.
func (p *Predictor) Trained(class string, n int) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	m, ok := p.classes[class]
	return ok && m.mean.Count() >= n
}
