"""Count eigenvalues and read off the spectral growth exponent.

A single curve of length 1 contributes eigenvalues pi*(k+1/2), so its
counting function grows linearly. Summing over all curves of the
infinite gasket (3^(m+1) curves of length 2^-m) gives growth
Lambda^log2(3), and the fitted slope lands on that exponent.
"""

import math

from prefractal.spectrum import (SpectrumSpec, counting_function,
                                 dimension_fit, enumerate_eigenvalues)
from prefractal.svg import line_plot

single = SpectrumSpec.single()
enum = enumerate_eigenvalues(single, 20.0)
first, _ = next(enum.blocks())
print("unit curve below 20: %d eigenvalues, first few %s"
      % (enum.total, [float(round(v, 4)) for v in first[:4]]))

spec = SpectrumSpec.gasket_limit()
for cut, total in counting_function(spec, [10.0, 1e3, 1e5]):
    print("N(%g) = %d" % (cut, total))

fit = dimension_fit(spec, 10.0, 1e5)
control = dimension_fit(single, 10.0, 1e5)
print("fitted slope %.5f vs log2(3) = %.5f (single-curve control %.5f)"
      % (fit.slope, math.log2(3), control.slope))

series = [("infinite gasket", list(zip(fit.grid, fit.counts))),
          ("single curve", list(zip(control.grid, control.counts)))]
with open("counting_function.svg", "w") as fh:
    fh.write(line_plot(series, "cutoff", "count",
                       title="eigenvalue counting, slope %.4f" % fit.slope,
                       log_x=True, log_y=True))
print("wrote counting_function.svg")
