//! Minimal dependency-free SVG line plots.
//!
//! The experiment binaries print tables and CSVs; this module turns their
//! series into `results/*.svg` line charts so the paper's figures can be
//! *looked at*, not just diffed. Deliberately small: linear axes, one
//! polyline per series, legend, tick labels — enough to eyeball a
//! crossover.

use crate::cli::Cli;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points (need not be sorted; they are drawn in order).
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }
}

/// A line chart.
#[derive(Debug, Clone)]
pub struct LinePlot {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
    /// Force the y axis to start at zero (default true — latency and
    /// hit-rate plots mislead otherwise).
    y_from_zero: bool,
}

/// A qualitative palette that survives grayscale printing.
const COLORS: [&str; 8] = [
    "#1b6ca8", "#d1495b", "#66a182", "#edae49", "#775097", "#3d3b30", "#00798c", "#b36a5e",
];

const W: f64 = 640.0;
const H: f64 = 400.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 160.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 48.0;

impl LinePlot {
    /// Creates an empty plot.
    #[must_use]
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        Self {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            y_from_zero: true,
        }
    }

    /// Lets the y axis fit the data instead of starting at zero.
    #[must_use]
    pub fn with_free_y(mut self) -> Self {
        self.y_from_zero = false;
        self
    }

    /// Adds a series.
    pub fn series(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    fn bounds(&self) -> Option<(f64, f64, f64, f64)> {
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        if pts.is_empty() {
            return None;
        }
        let (mut x0, mut x1, mut y0, mut y1) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for (x, y) in pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if self.y_from_zero {
            y0 = y0.min(0.0);
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        Some((x0, x1, y0, y1))
    }

    /// Renders the chart as an SVG document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">"#
        );
        let _ = write!(svg, r#"<rect width="{W}" height="{H}" fill="white"/>"#);
        let _ = write!(
            svg,
            r#"<text x="{}" y="22" font-size="14" text-anchor="middle">{}</text>"#,
            (MARGIN_L + W - MARGIN_R) / 2.0,
            escape(&self.title)
        );

        let Some((x0, x1, y0, y1)) = self.bounds() else {
            let _ = write!(svg, "</svg>");
            return svg;
        };
        let plot_w = W - MARGIN_L - MARGIN_R;
        let plot_h = H - MARGIN_T - MARGIN_B;
        let sx = |x: f64| MARGIN_L + (x - x0) / (x1 - x0) * plot_w;
        let sy = |y: f64| MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h;

        // Axes.
        let _ = write!(
            svg,
            r##"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#888"/>"##
        );
        // Ticks: 5 per axis.
        for i in 0..=4 {
            let fx = x0 + (x1 - x0) * f64::from(i) / 4.0;
            let fy = y0 + (y1 - y0) * f64::from(i) / 4.0;
            let _ = write!(
                svg,
                r#"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="middle">{}</text>"#,
                sx(fx),
                MARGIN_T + plot_h + 16.0,
                fmt_tick(fx)
            );
            let _ = write!(
                svg,
                r#"<text x="{:.1}" y="{:.1}" font-size="10" text-anchor="end">{}</text>"#,
                MARGIN_L - 6.0,
                sy(fy) + 3.0,
                fmt_tick(fy)
            );
            let _ = write!(
                svg,
                r##"<line x1="{MARGIN_L}" y1="{0:.1}" x2="{1:.1}" y2="{0:.1}" stroke="#eee"/>"##,
                sy(fy),
                MARGIN_L + plot_w
            );
        }
        // Axis labels.
        let _ = write!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" font-size="11" text-anchor="middle">{}</text>"#,
            MARGIN_L + plot_w / 2.0,
            H - 10.0,
            escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="14" y="{:.1}" font-size="11" text-anchor="middle" transform="rotate(-90 14 {:.1})">{}</text>"#,
            MARGIN_T + plot_h / 2.0,
            MARGIN_T + plot_h / 2.0,
            escape(&self.y_label)
        );

        // Series polylines + legend.
        for (i, s) in self.series.iter().enumerate() {
            let color = COLORS[i % COLORS.len()];
            let pts: String = s
                .points
                .iter()
                .filter(|(x, y)| x.is_finite() && y.is_finite())
                .map(|&(x, y)| format!("{:.1},{:.1} ", sx(x), sy(y)))
                .collect();
            let _ = write!(
                svg,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                pts.trim_end()
            );
            for &(x, y) in &s.points {
                if x.is_finite() && y.is_finite() {
                    let _ = write!(
                        svg,
                        r#"<circle cx="{:.1}" cy="{:.1}" r="2.6" fill="{color}"/>"#,
                        sx(x),
                        sy(y)
                    );
                }
            }
            let ly = MARGIN_T + 14.0 + i as f64 * 16.0;
            let lx = MARGIN_L + plot_w + 10.0;
            let _ = write!(
                svg,
                r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="2"/>"#,
                lx + 16.0
            );
            let _ = write!(
                svg,
                r#"<text x="{}" y="{}" font-size="10">{}</text>"#,
                lx + 20.0,
                ly + 3.0,
                escape(&s.label)
            );
        }
        let _ = write!(svg, "</svg>");
        svg
    }

    /// Writes the chart to `<results_dir(cli)>/<name>.svg` (see
    /// [`crate::report::results_dir`]).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write errors.
    pub fn write_svg(&self, cli: &Cli, name: &str) -> std::io::Result<PathBuf> {
        crate::report::write_result(cli, &format!("{name}.svg"), self.render())
    }
}

fn fmt_tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}k", v / 1000.0)
    } else if v.abs() >= 10.0 || v == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LinePlot {
        let mut p = LinePlot::new("Demo <plot>", "cache (GB)", "TPOT (ms)");
        p.series(Series::new(
            "fMoE",
            vec![(6.0, 235.0), (48.0, 186.0), (96.0, 113.0)],
        ));
        p.series(Series::new(
            "baseline",
            vec![(6.0, 792.0), (48.0, 639.0), (96.0, 113.0)],
        ));
        p
    }

    #[test]
    fn renders_valid_svg_with_all_series() {
        let svg = sample().render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("fMoE"));
        assert!(svg.contains("baseline"));
        // Title is escaped.
        assert!(svg.contains("Demo &lt;plot&gt;"));
        assert!(!svg.contains("Demo <plot>"));
    }

    #[test]
    fn empty_plot_is_still_valid() {
        let p = LinePlot::new("empty", "x", "y");
        let svg = p.render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(!svg.contains("polyline"));
    }

    #[test]
    fn points_stay_inside_the_plot_area() {
        let svg = sample().render();
        // Every circle's cx must lie within [MARGIN_L, W - MARGIN_R].
        for part in svg.split("<circle cx=\"").skip(1) {
            let cx: f64 = part.split('"').next().unwrap().parse().unwrap();
            assert!((MARGIN_L..=W - MARGIN_R).contains(&cx), "cx {cx}");
        }
    }

    #[test]
    fn non_finite_points_are_dropped() {
        let mut p = LinePlot::new("nan", "x", "y");
        p.series(Series::new(
            "s",
            vec![(0.0, 1.0), (f64::NAN, 2.0), (2.0, 3.0)],
        ));
        let svg = p.render();
        assert_eq!(svg.matches("<circle").count(), 2);
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn writes_file() {
        let p = sample();
        let path = p.write_svg(&Cli::default(), "unit_test_plot").unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }
}
