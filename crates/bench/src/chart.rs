//! Minimal self-contained SVG line charts for the experiment reports.
//!
//! The paper's Figure 8 is a set of line charts (average power vs BCET
//! fraction, one panel per application). `fig8_power --svg` draws them as
//! standalone SVG files from the cells its table prints — no plotting
//! dependency, just coordinate math and SVG text, which keeps the
//! workspace inside the approved crate set and makes the charts
//! bit-reproducible.

use std::fmt::Write;

/// One plotted series: a label and `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points, in x order.
    pub points: Vec<(f64, f64)>,
    /// Stroke color (any SVG color string).
    pub color: String,
}

/// Chart geometry and labels.
#[derive(Debug, Clone)]
pub struct ChartSpec {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Canvas width in pixels.
    pub width: u32,
    /// Canvas height in pixels.
    pub height: u32,
    /// Y-axis range (x range comes from the data).
    pub y_range: (f64, f64),
}

impl Default for ChartSpec {
    fn default() -> Self {
        ChartSpec {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            width: 480,
            height: 320,
            y_range: (0.0, 1.0),
        }
    }
}

/// Maps data space to pixel space inside fixed margins.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    x_min: f64,
    x_max: f64,
    y_min: f64,
    y_max: f64,
    left: f64,
    right: f64,
    top: f64,
    bottom: f64,
}

impl Scale {
    const MARGIN_LEFT: f64 = 56.0;
    const MARGIN_RIGHT: f64 = 16.0;
    const MARGIN_TOP: f64 = 32.0;
    const MARGIN_BOTTOM: f64 = 44.0;

    /// Builds the mapping for a chart of the given pixel size and ranges.
    ///
    /// # Panics
    ///
    /// Panics if either range is empty.
    pub fn new(spec: &ChartSpec, x_min: f64, x_max: f64) -> Self {
        assert!(x_max > x_min, "x range must be non-empty");
        assert!(spec.y_range.1 > spec.y_range.0, "y range must be non-empty");
        Scale {
            x_min,
            x_max,
            y_min: spec.y_range.0,
            y_max: spec.y_range.1,
            left: Self::MARGIN_LEFT,
            right: spec.width as f64 - Self::MARGIN_RIGHT,
            top: Self::MARGIN_TOP,
            bottom: spec.height as f64 - Self::MARGIN_BOTTOM,
        }
    }

    /// Data x to pixel x.
    fn px(&self, x: f64) -> f64 {
        self.left + (x - self.x_min) / (self.x_max - self.x_min) * (self.right - self.left)
    }

    /// Data y to pixel y (inverted: larger y is higher on screen).
    fn py(&self, y: f64) -> f64 {
        self.bottom - (y - self.y_min) / (self.y_max - self.y_min) * (self.bottom - self.top)
    }
}

/// Renders a complete standalone SVG document for the chart.
///
/// # Panics
///
/// Panics if no series has at least two points.
pub fn render_line_chart(spec: &ChartSpec, series: &[Series]) -> String {
    let xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    assert!(
        xs.len() >= 2,
        "a line chart needs at least two data points overall"
    );
    let x_min = xs.iter().copied().fold(f64::MAX, f64::min);
    let x_max = xs.iter().copied().fold(f64::MIN, f64::max);
    let scale = Scale::new(spec, x_min, x_max);

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}" font-family="sans-serif" font-size="11">"#,
        spec.width, spec.height, spec.width, spec.height
    );
    let _ = writeln!(svg, r#"<rect width="100%" height="100%" fill="white"/>"#);
    // Title and axis labels.
    let _ = writeln!(
        svg,
        r#"<text x="{}" y="18" text-anchor="middle" font-size="13">{}</text>"#,
        spec.width / 2,
        xml_escape(&spec.title)
    );
    let _ = writeln!(
        svg,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        spec.width / 2,
        spec.height - 8,
        xml_escape(&spec.x_label)
    );
    let _ = writeln!(
        svg,
        r#"<text x="14" y="{}" text-anchor="middle" transform="rotate(-90 14 {})">{}</text>"#,
        spec.height / 2,
        spec.height / 2,
        xml_escape(&spec.y_label)
    );

    // Gridlines + tick labels (5 ticks per axis).
    for i in 0..=4 {
        let fy = spec.y_range.0 + (spec.y_range.1 - spec.y_range.0) * i as f64 / 4.0;
        let y = scale.py(fy);
        let _ = writeln!(
            svg,
            r##"<line x1="{:.1}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#ddd"/>"##,
            scale.px(x_min),
            scale.px(x_max)
        );
        let _ = writeln!(
            svg,
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end">{fy:.2}</text>"#,
            scale.px(x_min) - 6.0,
            y + 4.0
        );
        let fx = x_min + (x_max - x_min) * i as f64 / 4.0;
        let x = scale.px(fx);
        let _ = writeln!(
            svg,
            r#"<text x="{x:.1}" y="{:.1}" text-anchor="middle">{fx:.1}</text>"#,
            scale.py(spec.y_range.0) + 16.0
        );
    }
    // Axes.
    let _ = writeln!(
        svg,
        r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="black"/>"#,
        scale.px(x_min),
        scale.py(spec.y_range.0),
        scale.px(x_max),
        scale.py(spec.y_range.0)
    );
    let _ = writeln!(
        svg,
        r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="black"/>"#,
        scale.px(x_min),
        scale.py(spec.y_range.0),
        scale.px(x_min),
        scale.py(spec.y_range.1)
    );

    // Series polylines + legend.
    for (i, s) in series.iter().enumerate() {
        let path: Vec<String> = s
            .points
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1}", scale.px(x), scale.py(y)))
            .collect();
        let _ = writeln!(
            svg,
            r#"<polyline points="{}" fill="none" stroke="{}" stroke-width="2"/>"#,
            path.join(" "),
            s.color
        );
        for &(x, y) in &s.points {
            let _ = writeln!(
                svg,
                r#"<circle cx="{:.1}" cy="{:.1}" r="2.5" fill="{}"/>"#,
                scale.px(x),
                scale.py(y),
                s.color
            );
        }
        let ly = Scale::MARGIN_TOP + 14.0 * i as f64;
        let _ = writeln!(
            svg,
            r#"<line x1="{0}" y1="{ly:.1}" x2="{1}" y2="{ly:.1}" stroke="{2}" stroke-width="2"/>
<text x="{3}" y="{4:.1}">{5}</text>"#,
            spec.width - 130,
            spec.width - 110,
            s.color,
            spec.width - 104,
            ly + 4.0,
            xml_escape(&s.label)
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// Escapes the five XML special characters.
fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&apos;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChartSpec {
        ChartSpec {
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            ..ChartSpec::default()
        }
    }

    fn series() -> Vec<Series> {
        vec![Series {
            label: "fps".into(),
            points: vec![(0.1, 0.5), (0.5, 0.7), (1.0, 0.9)],
            color: "#1f77b4".into(),
        }]
    }

    #[test]
    fn scale_maps_corners_to_margins() {
        let sp = spec();
        let sc = Scale::new(&sp, 0.0, 1.0);
        assert_eq!(sc.px(0.0), Scale::MARGIN_LEFT);
        assert_eq!(sc.px(1.0), sp.width as f64 - Scale::MARGIN_RIGHT);
        assert_eq!(sc.py(1.0), Scale::MARGIN_TOP);
        assert_eq!(sc.py(0.0), sp.height as f64 - Scale::MARGIN_BOTTOM);
    }

    #[test]
    fn scale_is_monotone() {
        let sc = Scale::new(&spec(), 0.0, 10.0);
        assert!(sc.px(3.0) < sc.px(7.0));
        assert!(sc.py(0.2) > sc.py(0.8)); // inverted
    }

    #[test]
    fn render_produces_wellformed_svg() {
        let svg = render_line_chart(&spec(), &series());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("polyline"));
        assert!(svg.matches("<circle").count() == 3);
        // Every open tag family is closed or self-closed: cheap sanity.
        assert_eq!(svg.matches("<svg").count(), svg.matches("</svg>").count());
    }

    #[test]
    fn labels_are_escaped() {
        let mut sp = spec();
        sp.title = "a < b & c".into();
        let svg = render_line_chart(&sp, &series());
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b & c"));
    }

    #[test]
    #[should_panic(expected = "two data points")]
    fn empty_chart_rejected() {
        let _ = render_line_chart(&spec(), &[]);
    }
}
