"""Mode counting against the large-frequency (Weyl) prediction.

The number of branches above a slowness level y grows linearly in
frequency, with slope set by the oscillatory layers:
(omega/pi) * sum |nu_tilde_p(y)| T_tilde_p.  Here the exact count (by
the Sturm count) is compared with that prediction across frequency for
the double-layer benchmark, at levels probing one and two oscillatory
layers.  The `proven` flag marks where the paper's theorem gives the
asymptotics (always, for up to two layers); the count's layer-by-layer
sum bounds -n <= N - W <= n + 1 everywhere, flagged or not.
"""

from lovedisp import Medium, mode_count, weyl_prediction

medium = Medium(mu=[1e6, 1818.0**2, 1e8], rho=[1.0, 1.0, 1.0], thickness=[100.0, 100.0])

for y in (7e-4, 4e-4, 1.2e-4):
    n_osc = sum(1 for inv in medium.slowness if y < inv)
    print(f"level y = {y:g} ({n_osc} oscillatory layer(s))")
    print(f"{'omega':>8} {'count':>6} {'weyl':>10} {'count/weyl':>11}")
    for omega in (125.0, 250.0, 500.0, 1000.0, 2000.0):
        count = mode_count(medium, omega, y)
        pred = weyl_prediction(medium, omega, y)
        ratio = count / pred.value if pred.value else float("nan")
        print(f"{omega:8.0f} {count:6d} {pred.value:10.2f} {ratio:11.4f}")
    print()

print("three-layer example: the flag marks the band outside the paper's theorem,")
print("where the O(n) bound still holds and the exact count probes the asymptotics:")
m3 = Medium(
    mu=[1e6, 1429.0**2, 2500.0**2, 1e8],
    rho=[1.0, 1.0, 1.0, 1.0],
    thickness=[100.0, 100.0, 100.0],
)
for omega in (500.0, 1000.0, 2000.0):
    count = mode_count(m3, omega, 2e-4)
    pred = weyl_prediction(m3, omega, 2e-4)
    print(f"  omega={omega:6.0f} y=2e-4: count {count:4d}  weyl "
          f"{pred.value:8.2f}  ratio {count / pred.value:.4f}  "
          f"proven={pred.proven}")
