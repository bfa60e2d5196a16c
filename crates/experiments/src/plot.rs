//! Minimal dependency-free SVG line charts, for regenerating the paper's
//! figures as image files.
//!
//! Deliberately small: linear axes, polyline series with markers, optional
//! min–max whiskers (the paper's Figs. 6/7 range bars), a legend, and tick
//! labels. Enough to *see* the reproduced curves without pulling a
//! plotting dependency into the workspace.

use std::fmt::Write as _;

/// One data point: x, y, and an optional `[lo, hi]` whisker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlotPoint {
    /// X coordinate (data units).
    pub x: f64,
    /// Y coordinate (data units).
    pub y: f64,
    /// Optional range bar around `y`.
    pub range: Option<(f64, f64)>,
}

impl PlotPoint {
    /// A point without a whisker.
    pub fn new(x: f64, y: f64) -> Self {
        PlotPoint { x, y, range: None }
    }

    /// A point with a `[lo, hi]` whisker.
    pub fn with_range(x: f64, y: f64, lo: f64, hi: f64) -> Self {
        PlotPoint {
            x,
            y,
            range: Some((lo, hi)),
        }
    }
}

/// A named series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// The points, in x order.
    pub points: Vec<PlotPoint>,
}

/// A line chart with linear axes.
#[derive(Debug, Clone)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

const WIDTH: f64 = 720.0;
const HEIGHT: f64 = 480.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 160.0;
const MARGIN_T: f64 = 50.0;
const MARGIN_B: f64 = 60.0;
const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn series(&mut self, name: impl Into<String>, points: Vec<PlotPoint>) -> &mut Self {
        self.series.push(Series {
            name: name.into(),
            points,
        });
        self
    }

    fn bounds(&self) -> (f64, f64, f64, f64) {
        let mut x_min = f64::INFINITY;
        let mut x_max = f64::NEG_INFINITY;
        let mut y_min: f64 = 0.0; // anchor at zero: throughput/delay plots
        let mut y_max = f64::NEG_INFINITY;
        for s in &self.series {
            for p in &s.points {
                x_min = x_min.min(p.x);
                x_max = x_max.max(p.x);
                let (lo, hi) = p.range.unwrap_or((p.y, p.y));
                y_min = y_min.min(lo.min(p.y));
                y_max = y_max.max(hi.max(p.y));
            }
        }
        if !x_min.is_finite() {
            (0.0, 1.0, 0.0, 1.0)
        } else {
            let y_pad = ((y_max - y_min).abs()).max(1e-9) * 0.05;
            (x_min, x_max.max(x_min + 1e-9), y_min, y_max + y_pad)
        }
    }

    /// Renders the chart as a standalone SVG document.
    pub fn render_svg(&self) -> String {
        let (x_min, x_max, y_min, y_max) = self.bounds();
        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let sx = move |x: f64| MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w;
        let sy = move |y: f64| MARGIN_T + plot_h - (y - y_min) / (y_max - y_min) * plot_h;

        let mut svg = String::new();
        let _ = write!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"#
        );
        svg.push_str(r#"<rect width="100%" height="100%" fill="white"/>"#);
        // Title and axis labels.
        let _ = write!(
            svg,
            r#"<text x="{x}" y="28" font-family="sans-serif" font-size="16" text-anchor="middle">{t}</text>"#,
            x = WIDTH / 2.0,
            t = xml_escape(&self.title)
        );
        let _ = write!(
            svg,
            r#"<text x="{x}" y="{y}" font-family="sans-serif" font-size="13" text-anchor="middle">{t}</text>"#,
            x = MARGIN_L + plot_w / 2.0,
            y = HEIGHT - 15.0,
            t = xml_escape(&self.x_label)
        );
        let _ = write!(
            svg,
            r#"<text x="18" y="{y}" font-family="sans-serif" font-size="13" text-anchor="middle" transform="rotate(-90 18 {y})">{t}</text>"#,
            y = MARGIN_T + plot_h / 2.0,
            t = xml_escape(&self.y_label)
        );
        // Axes box and ticks.
        let _ = write!(
            svg,
            r#"<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>"#
        );
        for i in 0..=5 {
            let fx = i as f64 / 5.0;
            let x_val = x_min + fx * (x_max - x_min);
            let y_val = y_min + fx * (y_max - y_min);
            let px = sx(x_val);
            let py = sy(y_val);
            let _ = write!(
                svg,
                r#"<line x1="{px}" y1="{b}" x2="{px}" y2="{b2}" stroke="black"/><text x="{px}" y="{ty}" font-family="sans-serif" font-size="11" text-anchor="middle">{v}</text>"#,
                b = MARGIN_T + plot_h,
                b2 = MARGIN_T + plot_h + 5.0,
                ty = MARGIN_T + plot_h + 18.0,
                v = fmt_tick(x_val)
            );
            let _ = write!(
                svg,
                r#"<line x1="{l}" y1="{py}" x2="{l2}" y2="{py}" stroke="black"/><text x="{tx}" y="{tyy}" font-family="sans-serif" font-size="11" text-anchor="end">{v}</text>"#,
                l = MARGIN_L - 5.0,
                l2 = MARGIN_L,
                tx = MARGIN_L - 8.0,
                tyy = py + 4.0,
                v = fmt_tick(y_val)
            );
            // Light horizontal gridline.
            let _ = write!(
                svg,
                r##"<line x1="{MARGIN_L}" y1="{py}" x2="{r}" y2="{py}" stroke="#dddddd"/>"##,
                r = MARGIN_L + plot_w
            );
        }
        // Series.
        for (i, s) in self.series.iter().enumerate() {
            let color = COLORS[i % COLORS.len()];
            let mut path = String::new();
            for p in &s.points {
                let _ = write!(path, "{},{} ", sx(p.x), sy(p.y));
            }
            let _ = write!(
                svg,
                r#"<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>"#
            );
            for p in &s.points {
                if let Some((lo, hi)) = p.range {
                    let _ = write!(
                        svg,
                        r#"<line x1="{x}" y1="{y1}" x2="{x}" y2="{y2}" stroke="{color}" stroke-width="1"/>"#,
                        x = sx(p.x),
                        y1 = sy(lo),
                        y2 = sy(hi)
                    );
                }
                let _ = write!(
                    svg,
                    r#"<circle cx="{x}" cy="{y}" r="3.5" fill="{color}"/>"#,
                    x = sx(p.x),
                    y = sy(p.y)
                );
            }
            // Legend entry.
            let ly = MARGIN_T + 20.0 * i as f64;
            let lx = WIDTH - MARGIN_R + 15.0;
            let _ = write!(
                svg,
                r#"<line x1="{lx}" y1="{ly}" x2="{x2}" y2="{ly}" stroke="{color}" stroke-width="2"/><text x="{tx}" y="{ty}" font-family="sans-serif" font-size="12">{n}</text>"#,
                x2 = lx + 24.0,
                tx = lx + 30.0,
                ty = ly + 4.0,
                n = xml_escape(&s.name)
            );
        }
        svg.push_str("</svg>");
        svg
    }
}

/// Writes each `(file name, SVG text)` pair into `dir`, creating `dir`
/// first, and prints `wrote PATH` to stderr per file. With no files it
/// only creates `dir`, which lets a caller refuse a bad output path
/// before a long run rather than after it.
///
/// # Errors
///
/// One line naming the directory or file that could not be created or
/// written, and why.
pub fn write_svgs(dir: &str, files: &[(String, String)]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create SVG directory {dir}: {e}"))?;
    for (name, svg) in files {
        let path = std::path::Path::new(dir).join(name);
        std::fs::write(&path, svg).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn fmt_tick(v: f64) -> String {
    // Axis ticks at (or within rounding noise of) the origin print as "0".
    if v.abs() < 1e-12 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> LineChart {
        let mut c = LineChart::new("Fig & test", "θ (deg)", "throughput");
        c.series(
            "DRTS-DCTS",
            vec![
                PlotPoint::with_range(30.0, 0.5, 0.3, 0.7),
                PlotPoint::new(90.0, 0.4),
                PlotPoint::new(150.0, 0.3),
            ],
        );
        c.series(
            "ORTS-OCTS",
            vec![PlotPoint::new(30.0, 0.32), PlotPoint::new(150.0, 0.32)],
        );
        c
    }

    #[test]
    fn svg_is_well_formed_enough() {
        let svg = chart().render_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(
            svg.matches("<polyline").count(),
            2,
            "one polyline per series"
        );
        assert!(svg.contains("DRTS-DCTS"));
        assert!(svg.contains("ORTS-OCTS"));
        // Title ampersand must be escaped.
        assert!(svg.contains("Fig &amp; test"));
        assert!(!svg.contains("Fig & test"));
    }

    #[test]
    fn whiskers_render_as_extra_lines() {
        let svg = chart().render_svg();
        // 1 whisker + 2 legend lines + axis ticks; count circles instead:
        assert_eq!(svg.matches("<circle").count(), 5, "one marker per point");
    }

    #[test]
    fn empty_chart_renders_without_panic() {
        let svg = LineChart::new("empty", "x", "y").render_svg();
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn points_scale_into_plot_area() {
        let mut c = LineChart::new("t", "x", "y");
        c.series(
            "s",
            vec![PlotPoint::new(0.0, 0.0), PlotPoint::new(10.0, 1.0)],
        );
        let svg = c.render_svg();
        // The max point must map to the top-right region of the plot box.
        // (Smoke check: coordinates stay within the canvas.)
        for token in svg.split(['"', ' ', ',']) {
            if let Ok(v) = token.parse::<f64>() {
                assert!((-1000.0..=1000.0).contains(&v), "wild coordinate {v}");
            }
        }
    }

    #[test]
    fn write_svgs_creates_the_directory_and_writes_each_file() {
        let dir = std::env::temp_dir().join(format!("dirca_plot_test_{}", std::process::id()));
        let dir_str = dir.to_str().unwrap();
        let files = [("chart.svg".to_string(), chart().render_svg())];
        write_svgs(dir_str, &files).unwrap();
        let content = std::fs::read_to_string(dir.join("chart.svg")).unwrap();
        assert_eq!(content, files[0].1);
        // A regular file where the directory should be is refused by name.
        let blocked = dir.join("chart.svg");
        let err = write_svgs(blocked.to_str().unwrap(), &files).unwrap_err();
        assert!(err.contains(blocked.to_str().unwrap()), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(fmt_tick(0.0), "0");
        assert_eq!(fmt_tick(0.5), "0.50");
        assert_eq!(fmt_tick(42.0), "42.0");
        assert_eq!(fmt_tick(500.0), "500");
    }
}
